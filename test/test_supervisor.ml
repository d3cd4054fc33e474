(* The supervision layer: structured partial outcomes where truncation
   used to raise, worker fault isolation across the pipeline,
   deterministic chaos injection, and checkpoint/resume equivalence. *)

open Lbsa

let expired () = Supervisor.Budget.make ~deadline_s:0. ()

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_outcome label want got =
  if got <> want then
    Alcotest.failf "%s: expected %a, got %a" label Supervisor.pp_outcome want
      Supervisor.pp_outcome got

let same_graph label (g1 : Cgraph.t) (g2 : Cgraph.t) =
  Alcotest.(check int)
    (label ^ ": node count") (Cgraph.n_nodes g1) (Cgraph.n_nodes g2);
  Alcotest.(check int)
    (label ^ ": edge count") (Cgraph.n_edges g1) (Cgraph.n_edges g2);
  for id = 0 to Cgraph.n_nodes g1 - 1 do
    if not (Config.equal (Cgraph.node g1 id) (Cgraph.node g2 id)) then
      Alcotest.failf "%s: node %d differs" label id;
    if Cgraph.out_edges g1 id <> Cgraph.out_edges g2 id then
      Alcotest.failf "%s: out-edges of node %d differ" label id
  done

let dac_instance n =
  ( Dac_from_pac.machine ~n,
    Dac_from_pac.specs ~n,
    Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0)) )

(* --- structured outcomes (the old raise-through Truncated path) -------- *)

let test_truncation_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let v =
    Solvability.check_consensus ~max_states:1 ~machine ~specs ~inputs ()
  in
  Alcotest.(check bool) "partial is not ok" false v.Solvability.ok;
  expect_outcome "quota" Supervisor.Truncated v.Solvability.outcome;
  Alcotest.(check bool)
    "suspension captured" true
    (v.Solvability.suspended <> None)

let test_deadline_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let v =
    Solvability.check_consensus ~budget:(expired ()) ~machine ~specs ~inputs
      ()
  in
  Alcotest.(check bool) "partial is not ok" false v.Solvability.ok;
  expect_outcome "deadline" Supervisor.Deadline v.Solvability.outcome;
  Alcotest.(check bool)
    "suspension captured" true
    (v.Solvability.suspended <> None)

let test_cancellation_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let token = Supervisor.token () in
  Supervisor.cancel token;
  let budget = Supervisor.Budget.make ~deadline_s:3600. ~token () in
  let v =
    Solvability.check_consensus ~budget ~machine ~specs ~inputs ()
  in
  (* Cancellation wins over a live deadline. *)
  expect_outcome "cancelled" Supervisor.Cancelled v.Solvability.outcome

let test_sigint_routes_to_token () =
  (* The CLI's ^C path, minus the terminal: install the handler, send
     ourselves a real SIGINT, and watch it land in the token.  (The
     interrupt/resume CLI test below uses --deadline 0 instead — every
     run here is far too fast to signal from outside without racing —
     and cancellation and deadline share the same stop path.) *)
  let token = Supervisor.token () in
  Supervisor.install_sigint token;
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint Sys.Signal_default)
    (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* OCaml delivers signals at poll points; spin on one until then. *)
      let give_up = Unix.gettimeofday () +. 5. in
      while
        (not (Supervisor.cancelled token))
        && Unix.gettimeofday () < give_up
      do
        ignore (Sys.opaque_identity (ref 0))
      done;
      Alcotest.(check bool) "SIGINT cancels the token" true
        (Supervisor.cancelled token);
      let budget = Supervisor.Budget.make ~token () in
      match Supervisor.Budget.stop budget with
      | Some Supervisor.Cancelled -> ()
      | Some o ->
        Alcotest.failf "expected Cancelled, got %a" Supervisor.pp_outcome o
      | None -> Alcotest.fail "budget ignored the cancelled token")

(* --- worker fault isolation -------------------------------------------- *)

let test_graph_isolates_raising_machine () =
  let machine =
    Machine.make ~name:"raiser"
      ~init:(fun ~pid:_ ~input -> input)
      ~delta:(fun ~pid:_ _ -> failwith "injected machine fault")
  in
  let g =
    Cgraph.build ~machine ~specs:[||] ~inputs:[| Value.int 0 |] ()
  in
  (match g.Cgraph.stop with
  | Supervisor.Worker_failed { worker = 0; _ } -> ()
  | o ->
    Alcotest.failf "expected a worker failure, got %a" Supervisor.pp_outcome o);
  Alcotest.(check bool) "marked truncated" true g.Cgraph.truncated;
  Alcotest.(check int) "the explored prefix survives" 1 (Cgraph.n_nodes g)

(* The parallel path of the same isolation: the step relation raises on
   exactly one configuration, the last node of the first level whose
   frontier is large enough (> 256 nodes) to be expanded by several
   domains.  When it always raises, sequential and parallel builds must
   both stop with the same [Worker_failed] (naming the poisoned
   frontier index), abandon that level whole, and keep the same
   surviving prefix — which resumes to the full graph.  When
   only its first two attempts raise, the retry must redo the claimed
   block and the build must complete with the full graph. *)
let test_parallel_level_failure () =
  let n = 3 in
  let machine = Obstruction_free.machine_spin ~n ~max_rounds:1 in
  let specs = Obstruction_free.specs ~n ~max_rounds:1 in
  let inputs = Array.init n (fun pid -> Value.int (pid mod 2)) in
  let full = Cgraph.build ~domains:1 ~machine ~specs ~inputs () in
  let sizes = (Cgraph.stats full).Cgraph.frontier_sizes in
  let rec level l first =
    if l >= Array.length sizes then Alcotest.fail "no frontier exceeds 256"
    else if sizes.(l) > 256 then (first, sizes.(l))
    else level (l + 1) (first + sizes.(l))
  in
  let first, size = level 0 0 in
  let poison = Cgraph.node full (first + size - 1) in
  let raising ~faults =
    let left = Atomic.make faults in
    {
      Substrate.shm with
      step_branches =
        (fun ~machine ~specs config pid ->
          if Config.equal config poison && Atomic.fetch_and_add left (-1) > 0
          then failwith "injected step fault";
          Substrate.shm.Substrate.step_branches ~machine ~specs config pid);
    }
  in
  let build domains =
    let substrate = raising ~faults:max_int in
    let g = Cgraph.build ~domains ~substrate ~machine ~specs ~inputs () in
    (match g.Cgraph.stop with
    | Supervisor.Worker_failed { attempts = 3; _ } -> ()
    | o ->
      Alcotest.failf "domains=%d: expected a worker failure, got %a" domains
        Supervisor.pp_outcome o);
    Alcotest.(check int)
      (Fmt.str "domains=%d: failed level left unexpanded" domains)
      first (Option.get g.Cgraph.suspended).Cgraph.s_expanded;
    g
  in
  let seq = build 1 and par = build 2 in
  (match seq.Cgraph.stop with
  | Supervisor.Worker_failed { worker; _ } ->
    Alcotest.(check int) "worker = the poisoned frontier index" (size - 1)
      worker
  | _ -> ());
  expect_outcome "domains 1 vs 2 outcome" seq.Cgraph.stop par.Cgraph.stop;
  Alcotest.(check int) "prefix ends after the failed level's frontier"
    (first + size) (Cgraph.n_nodes seq);
  same_graph "domains 1 vs 2 surviving prefix" seq par;
  let resumed =
    Cgraph.build ~domains:2 ~resume:(Option.get par.Cgraph.suspended) ~machine
      ~specs ~inputs ()
  in
  same_graph "resumed prefix = uninterrupted" full resumed;
  List.iter
    (fun domains ->
      let g =
        Cgraph.build ~domains ~substrate:(raising ~faults:2) ~machine ~specs
          ~inputs ()
      in
      let label = Fmt.str "transient fault, domains=%d" domains in
      expect_outcome label Supervisor.Done g.Cgraph.stop;
      same_graph label full g)
    [ 1; 2 ]

let test_sweep_survives_raising_checker () =
  (* Regression for the latent for_all_inputs bug: an exception escaping
     a spawned domain used to abort the whole sweep through
     [Domain.join].  Now it becomes a failing [Worker_failed] verdict for
     that vector, and the winning vector is domain-count-invariant. *)
  let vectors = Consensus_task.binary_inputs 2 in
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let check inputs =
    if Value.equal inputs.(0) (Value.int 1) then failwith "checker bug";
    Solvability.check_consensus ~machine ~specs ~inputs ()
  in
  let reference = Solvability.for_all_inputs ~domains:1 check vectors in
  Alcotest.(check bool) "sweep fails" false reference.Solvability.ok;
  (match reference.Solvability.outcome with
  | Supervisor.Worker_failed { attempts = 3; _ } -> ()
  | o ->
    Alcotest.failf "expected exhausted retries, got %a" Supervisor.pp_outcome
      o);
  (match reference.Solvability.failure with
  | Some msg when contains_sub ~sub:"checker raised" msg -> ()
  | Some msg -> Alcotest.failf "unexpected failure message %S" msg
  | None -> Alcotest.fail "no failure message");
  List.iter
    (fun d ->
      let v = Solvability.for_all_inputs ~domains:d check vectors in
      Alcotest.(check bool) (Fmt.str "domains=%d fails" d) false
        v.Solvability.ok;
      if
        not
          (Value.equal
             (Value.list (Array.to_list v.Solvability.inputs))
             (Value.list (Array.to_list reference.Solvability.inputs)))
      then Alcotest.failf "domains=%d picked a different failing vector" d)
    [ 2; 3; 4 ]

(* The scan's contract: the lowest settled index (a hit, or an index
   whose block keeps raising) and the completed prefix ending at it are
   the same for every domain count and block size, and a fired budget
   stops the scan before its first index. *)
let test_scan_lowest_index () =
  let body ~raise_at i =
    if i = raise_at then failwith "boom"
    else if i >= 37 && i mod 7 = 2 then Some (i * i)
    else None
  in
  let first = function
    | Some (i, Ok a) -> Fmt.str "hit %d -> %d" i a
    | Some (i, Error (_, attempts)) -> Fmt.str "raised at %d x%d" i attempts
    | None -> "none"
  in
  List.iter
    (fun block ->
      List.iter
        (fun domains ->
          let label what =
            Fmt.str "block=%d domains=%d: %s" block domains what
          in
          let scan ?budget ~stop raise_at =
            Supervisor.scan ~domains ~block ?budget ~start:5 ~stop
              (body ~raise_at)
          in
          let r = scan ~stop:200 90 in
          Alcotest.(check string) (label "hit") "hit 37 -> 1369"
            (first r.Supervisor.first);
          Alcotest.(check int) (label "completed at the hit") 37
            r.Supervisor.completed;
          let r = scan ~stop:200 20 in
          Alcotest.(check string) (label "failure") "raised at 20 x3"
            (first r.Supervisor.first);
          Alcotest.(check int) (label "completed at the failure") 20
            r.Supervisor.completed;
          let r = scan ~stop:30 (-1) in
          Alcotest.(check string) (label "clean") "none"
            (first r.Supervisor.first);
          Alcotest.(check int) (label "clean completes") 30
            r.Supervisor.completed;
          let r = scan ~budget:(expired ()) ~stop:200 (-1) in
          Alcotest.(check int) (label "stopped before the start") 5
            r.Supervisor.completed;
          expect_outcome (label "budget") Supervisor.Deadline
            (Option.value r.Supervisor.stopped ~default:Supervisor.Done))
        [ 1; 2; 3; 8 ])
    [ 1; 4; 64 ]

let test_run_shard_retries_then_fails () =
  let calls = ref 0 in
  (match
     Supervisor.run_shard ~backoff_s:1e-6 ~worker:7 (fun () ->
         incr calls;
         failwith "always")
   with
  | Ok () -> Alcotest.fail "expected failure"
  | Error (msg, attempts) ->
    Alcotest.(check int) "three attempts" 3 attempts;
    Alcotest.(check bool) "message kept" true (contains_sub ~sub:"always" msg));
  Alcotest.(check int) "body ran once per attempt" 3 !calls;
  match
    Supervisor.run_shard ~backoff_s:1e-6 ~worker:7 (fun () ->
        incr calls;
        if !calls < 5 then failwith "flaky" else 42)
  with
  | Ok v -> Alcotest.(check int) "recovers" 42 v
  | Error (msg, _) -> Alcotest.failf "should have recovered: %s" msg

(* --- deterministic chaos ----------------------------------------------- *)

let with_chaos seed f =
  Supervisor.Chaos.arm ~seed ();
  Fun.protect ~finally:Supervisor.Chaos.disarm f

let test_chaos_preserves_graph_and_verdict () =
  let machine, specs, inputs = dac_instance 4 in
  let clean = Cgraph.build ~domains:2 ~machine ~specs ~inputs () in
  List.iter
    (fun d ->
      let g =
        with_chaos 11 (fun () ->
            Cgraph.build ~domains:d ~machine ~specs ~inputs ())
      in
      expect_outcome (Fmt.str "chaos domains=%d completes" d) Supervisor.Done
        g.Cgraph.stop;
      same_graph (Fmt.str "chaos domains=%d" d) clean g)
    [ 1; 2; 4 ];
  let vectors = Dac.binary_inputs 3 in
  let machine3, specs3, _ = dac_instance 3 in
  let check inputs =
    Solvability.check_dac ~domains:1 ~machine:machine3 ~specs:specs3 ~inputs
      ()
  in
  let reference = Solvability.for_all_inputs ~domains:1 check vectors in
  List.iter
    (fun d ->
      let v =
        with_chaos 23 (fun () ->
            Solvability.for_all_inputs ~domains:d check vectors)
      in
      Alcotest.(check bool)
        (Fmt.str "chaos domains=%d verdict" d)
        reference.Solvability.ok v.Solvability.ok;
      expect_outcome
        (Fmt.str "chaos domains=%d outcome" d)
        reference.Solvability.outcome v.Solvability.outcome)
    [ 1; 2; 4 ]

(* --- checkpoint / resume ----------------------------------------------- *)

let roundtrip_through_disk ~label s =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Checkpoint.save ~file (Checkpoint.freeze ~label s);
      let c = Checkpoint.load ~file in
      Alcotest.(check string) "label survives" label (Checkpoint.label c);
      (* Shift the intern id space before thawing: resumed graphs must
         not depend on the ids this process happened to assign. *)
      for i = 1 to 1_000 do
        ignore (Value.list [ Value.int (5_000_000 + i); Value.sym "junk" ])
      done;
      Checkpoint.thaw c)

let test_resume_from_deadline_checkpoint () =
  let machine, specs, inputs = dac_instance 3 in
  let full = Cgraph.build ~machine ~specs ~inputs () in
  let partial =
    Cgraph.build ~budget:(expired ()) ~machine ~specs ~inputs ()
  in
  expect_outcome "stopped at the first level" Supervisor.Deadline
    partial.Cgraph.stop;
  let s = Option.get partial.Cgraph.suspended in
  let resumed =
    Cgraph.build
      ~resume:(roundtrip_through_disk ~label:"dac3 from-initial" s)
      ~machine ~specs ~inputs ()
  in
  expect_outcome "resume runs to completion" Supervisor.Done
    resumed.Cgraph.stop;
  same_graph "deadline-0 resume = uninterrupted" full resumed

let test_resume_from_midway_checkpoint () =
  (* Truncate mid-exploration (nonzero expanded prefix, partially built
     edge array), persist, thaw, finish: identical graph. *)
  let machine, specs, inputs = dac_instance 3 in
  let full = Cgraph.build ~machine ~specs ~inputs () in
  let partial =
    Cgraph.build ~max_states:40 ~machine ~specs ~inputs ()
  in
  expect_outcome "quota fired" Supervisor.Truncated partial.Cgraph.stop;
  let s = Option.get partial.Cgraph.suspended in
  let resumed =
    Cgraph.build
      ~resume:(roundtrip_through_disk ~label:"dac3 midway" s)
      ~machine ~specs ~inputs ()
  in
  same_graph "midway resume = uninterrupted" full resumed;
  (* And resuming across domain counts still agrees. *)
  let resumed4 =
    Cgraph.build ~domains:4 ~resume:(Option.get partial.Cgraph.suspended)
      ~machine ~specs ~inputs ()
  in
  same_graph "midway resume, 4 domains" full resumed4

let test_checkpoint_rejects_foreign_files () =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "not a checkpoint at all";
      close_out oc;
      match Checkpoint.load ~file with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "foreign file accepted")

(* --- fuzz engine under budgets ----------------------------------------- *)

let test_fan_budget_stops_and_resumes () =
  let run i = if i = 25 then Some (i * 3) else None in
  let stopped =
    Fuzz_engine.fan ~domains:2 ~budget:(expired ()) ~trials:40 ~run ()
  in
  Alcotest.(check (option (pair int int))) "no hit" None stopped.Fuzz_engine.hit;
  Alcotest.(check int) "nothing completed" 0 stopped.Fuzz_engine.fan_completed;
  expect_outcome "deadline surfaces" Supervisor.Deadline
    stopped.Fuzz_engine.fan_outcome;
  (* Resume from an arbitrary completed prefix: same hit, any domains. *)
  List.iter
    (fun d ->
      let r = Fuzz_engine.fan ~domains:d ~start:10 ~trials:40 ~run () in
      Alcotest.(check (option (pair int int)))
        (Fmt.str "resumed, domains=%d" d)
        (Some (25, 75)) r.Fuzz_engine.hit)
    [ 1; 2; 4 ]

let test_fuzz_checkpoint_roundtrip () =
  let t = Fuzz_targets.spec_target "pac:2" in
  let full = Fuzz_engine.fuzz_spec ~domains:1 ~trials:50 ~seed:5 t in
  let stopped =
    Fuzz_engine.fuzz_spec ~domains:1 ~budget:(expired ()) ~trials:50 ~seed:5 t
  in
  expect_outcome "campaign stopped" Supervisor.Deadline
    stopped.Fuzz_engine.outcome;
  let ckpt = Fuzz_engine.checkpoint_of_reports ~seed:5 [ stopped ] in
  let file = Filename.temp_file "lbsa-fuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Fuzz_engine.save_checkpoint ~file ckpt;
      let c = Fuzz_engine.load_checkpoint ~file in
      Alcotest.(check int) "seed" 5 c.Fuzz_engine.ckpt_seed;
      let start =
        Fuzz_engine.resume_start c ~name:stopped.Fuzz_engine.rtarget
      in
      Alcotest.(check int) "completed prefix" stopped.Fuzz_engine.completed
        start;
      let resumed = Fuzz_engine.fuzz_spec ~domains:1 ~start ~trials:50 ~seed:5 t in
      expect_outcome "resumed campaign finishes" Supervisor.Done
        resumed.Fuzz_engine.outcome;
      Alcotest.(check int) "all trials accounted for" full.Fuzz_engine.completed
        resumed.Fuzz_engine.completed;
      Alcotest.(check bool) "same (absent) failure" true
        (full.Fuzz_engine.failure = None && resumed.Fuzz_engine.failure = None))

(* A fuzz checkpoint whose body was damaged on disk must be refused,
   never resumed from: flipping the byte that holds the completed count
   would otherwise silently skip (or repeat) trials. *)
let test_fuzz_checkpoint_flipped_byte () =
  let target = "spec flip-target" in
  let ckpt = { Fuzz_engine.ckpt_seed = 42; ckpt_done = [ (target, 0) ] } in
  let file = Filename.temp_file "lbsa-fuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Fuzz_engine.save_checkpoint ~file ckpt;
      let bytes =
        Bytes.of_string (In_channel.with_open_bin file In_channel.input_all)
      in
      (* the marshalled count (small int 0, byte 0x40) follows the name *)
      let rec find i =
        if Bytes.sub_string bytes i (String.length target) = target then
          i + String.length target
        else find (i + 1)
      in
      let i = find 0 in
      Alcotest.(check int)
        "count byte located" 0x40
        (Char.code (Bytes.get bytes i));
      Bytes.set bytes i (Char.chr (0x40 lxor 0x3f));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc bytes);
      match Fuzz_engine.load_checkpoint ~file with
      | exception Failure _ -> ()
      | c ->
        Alcotest.failf "flipped checkpoint loaded (resume start %d)"
          (Fuzz_engine.resume_start c ~name:target))

let test_shrink_budget_zero_reports_no_shrink () =
  (* Regression: a 0-budget descent returns the original case, which
     used to be reported as [shrunk = Some original] — a "shrunk to N
     calls" claim for a case that never shrank (and, mid-descent, was
     never re-validated).  The failure itself must still be reported,
     with the shrink record honestly absent. *)
  let t = Fuzz_targets.impl_target "mutant-pac:2" in
  let r =
    Fuzz_engine.fuzz_impl ~domains:1 ~shrink_budget:0 ~trials:500 ~seed:42 t
  in
  match r.Fuzz_engine.failure with
  | None -> Alcotest.fail "fuzzer missed the known-bad target"
  | Some f -> (
    match f.Fuzz_engine.shrunk with
    | None -> ()
    | Some (c, _) ->
      Alcotest.failf "budget 0 reported a phantom shrink to %d calls"
        (Fuzz_case.n_calls c));
    (* With a real budget the same failure must shrink to a strictly
       smaller (or equal-size, but then unreported) re-validated case. *)
    (let r' =
       Fuzz_engine.fuzz_impl ~domains:1 ~trials:500 ~seed:42 t
     in
     match r'.Fuzz_engine.failure with
     | None -> Alcotest.fail "fuzzer missed the known-bad target unshrunk"
     | Some f' -> (
       match f'.Fuzz_engine.shrunk with
       | None -> ()
       | Some (c, _) ->
         (* Shrink steps drop calls or faults, never add either. *)
         Alcotest.(check bool) "a reported shrink is no larger" true
           (Fuzz_case.n_calls c <= Fuzz_case.n_calls f'.Fuzz_engine.case)))

(* --- the CLI acceptance property --------------------------------------- *)

let test_cli_interrupt_resume_byte_identical () =
  (* `lbsa solve` interrupted at the first safe point (--deadline 0),
     checkpointed, and resumed must print byte-for-byte what the
     uninterrupted run prints — with chaos riding along on the resume. *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let full = Filename.temp_file "lbsa-full" ".txt" in
  let resumed = Filename.temp_file "lbsa-resumed" ".txt" in
  let ckpt = Filename.temp_file "lbsa-solve" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ full; resumed; ckpt ])
    (fun () ->
      let q = Filename.quote in
      let run fmt = Fmt.kstr Sys.command fmt in
      Alcotest.(check int) "uninterrupted run passes" 0
        (run "%s solve dac -n 3 > %s 2>/dev/null" (q exe) (q full));
      Alcotest.(check int) "deadline-0 run is partial" 2
        (run "%s solve dac -n 3 --deadline 0 --checkpoint %s > /dev/null 2>&1"
           (q exe) (q ckpt));
      Alcotest.(check int) "resumed run passes" 0
        (run "%s solve dac -n 3 --resume %s --chaos-seed 11 > %s 2>/dev/null"
           (q exe) (q ckpt) (q resumed));
      Alcotest.(check int) "stdout is byte-for-byte identical" 0
        (run "cmp -s %s %s" (q full) (q resumed)))

(* --- Ctbl under adversarial hashing (satellite 4) ----------------------- *)

let config_of_int i =
  Config.initial ~machine:Machine.trivial_decide_input ~specs:[||]
    ~inputs:[| Value.int i |]

let test_ctbl_all_equal_hashes () =
  (* 200 distinct keys, every one claiming hash 0: the table degrades to
     a probe chain but must stay correct — no livelock, distinct ids,
     hits and misses exact, and the probe telemetry must show that the
     stored-hash shortcut can never dismiss a slot. *)
  let n = 200 in
  let t = Ctbl.create 1 in
  for i = 0 to n - 1 do
    let id = Ctbl.find_or_add t (config_of_int i) ~hash:0 ~if_absent:(fun _ -> i) in
    Alcotest.(check int) "fresh insert keeps its id" i id
  done;
  Alcotest.(check int) "all keys distinct" n (Ctbl.length t);
  for i = 0 to n - 1 do
    match Ctbl.find_opt t (config_of_int i) ~hash:0 with
    | Some id when id = i -> ()
    | Some id -> Alcotest.failf "key %d resolved to id %d" i id
    | None -> Alcotest.failf "key %d lost" i
  done;
  Alcotest.(check (option int))
    "miss stays a miss" None
    (Ctbl.find_opt t (config_of_int (n + 777)) ~hash:0);
  let st = Ctbl.probe_stats t in
  Alcotest.(check int)
    "equal hashes can never be dismissed by hash" 0 st.Ctbl.hash_skips;
  if st.Ctbl.equal_confirms < n then
    Alcotest.failf "implausible telemetry: %d structural compares for %d hits"
      st.Ctbl.equal_confirms n;
  if st.Ctbl.probes < st.Ctbl.equal_confirms then
    Alcotest.failf "probe count %d below confirm count %d" st.Ctbl.probes
      st.Ctbl.equal_confirms

let test_ctbl_growth_from_capacity_one () =
  (* Seed the table at capacity 1 and push three orders of magnitude
     through it: growth must preserve every binding and re-insertions at
     capacity must stay idempotent. *)
  let n = 1_000 in
  let t = Ctbl.create 1 in
  for i = 0 to n - 1 do
    let c = config_of_int i in
    ignore (Ctbl.find_or_add t c ~hash:(Config.hash c) ~if_absent:(fun _ -> i))
  done;
  Alcotest.(check int) "all inserted across growth" n (Ctbl.length t);
  for i = 0 to n - 1 do
    let c = config_of_int i in
    let id = Ctbl.find_or_add t c ~hash:(Config.hash c) ~if_absent:(fun _ -> -1) in
    Alcotest.(check int) "binding stable across growth" i id
  done;
  Alcotest.(check int) "no phantom entries" n (Ctbl.length t)

(* --- the dedup table and out-of-core builds ------------------------------ *)

(* Reduction modes for the equivalence matrix, built the way the serve
   API builds them (dac's PAC object is inert once upset — the [frozen]
   certification the sleep layer wants). *)
let dac_reductions n =
  let frozen obj st = obj = 0 && Pac.is_upset st in
  [
    Cgraph.no_reduction;
    { Cgraph.rname = "sym"; canon = Canon.dac ~n; sleep = false; frozen = None };
    { Cgraph.rname = "sym+sleep"; canon = Canon.dac ~n; sleep = true;
      frozen = Some frozen };
  ]

(* The explorer against the sequential [build_cmap] oracle, for every
   reduction mode ("none" included): node set and edge set are
   identical. *)
let test_build_equals_oracle () =
  let machine, specs, inputs = dac_instance 3 in
  List.iter
    (fun reduce ->
      let oracle = Cgraph.build_cmap ~reduce ~machine ~specs ~inputs () in
      let g = Cgraph.build ~reduce ~machine ~specs ~inputs () in
      same_graph (reduce.Cgraph.rname ^ " vs oracle") oracle g)
    (dac_reductions 3)

(* Freezing keeps lookups exact: frozen slots answer through [resolve]
   (counted as faults), resident ones never fault, and probe chains
   running through frozen slots stay intact.  This doubles as the
   regression guard for the sentinel-sharing defect: [frozen_key] and
   the empty-slot marker were once compiled to the same static block,
   so freezing silently emptied slots — resident entries behind them
   went unfindable and re-encounters of frozen states got fresh ids. *)
let test_freeze_resolves () =
  let n = 100 and limit = 50 in
  let all = Array.init n config_of_int in
  let t = Ctbl.create ~resolve:(fun id -> all.(id)) 16 in
  for i = 0 to n - 1 do
    ignore
      (Ctbl.find_or_add t all.(i) ~hash:(Config.hash all.(i))
         ~if_absent:(fun _ -> i))
  done;
  Alcotest.(check int) "froze the cold prefix" limit
    (Ctbl.freeze_below t ~id_limit:limit);
  Alcotest.(check int) "frozen count" limit (Ctbl.frozen t);
  Alcotest.(check int) "refreezing freezes nothing new" 0
    (Ctbl.freeze_below t ~id_limit:limit);
  for i = 0 to n - 1 do
    match Ctbl.find_opt t all.(i) ~hash:(Config.hash all.(i)) with
    | Some id when id = i -> ()
    | Some id -> Alcotest.failf "key %d resolved to %d" i id
    | None -> Alcotest.failf "key %d lost to freezing" i
  done;
  Alcotest.(check bool) "frozen hits fault" true (Ctbl.faults t >= limit);
  (* re-adding a frozen key must dedup, not mint a fresh id *)
  let id =
    Ctbl.find_or_add t all.(0) ~hash:(Config.hash all.(0))
      ~if_absent:(fun _ -> Alcotest.fail "frozen key re-added as new")
  in
  Alcotest.(check int) "dedup survives" 0 id;
  Alcotest.(check int) "no phantom entries" n (Ctbl.length t)

(* Out-of-core builds: an aggressively tiny threshold forces many
   spill waves on dac:3, and the graph must stay bit-identical to the
   resident build's, for every reduction mode.
   [same_graph] reads every node, so it also exercises fault-in. *)
let test_spill_build_equivalence () =
  let machine, specs, inputs = dac_instance 3 in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      List.iter
        (fun reduce ->
          let resident = Cgraph.build ~reduce ~machine ~specs ~inputs () in
          let spill = { Cgraph.spill_dir = dir; spill_threshold = 20 } in
          let g = Cgraph.build ~reduce ~spill ~machine ~specs ~inputs () in
          let label = "spilled " ^ reduce.Cgraph.rname in
          let sp = (Cgraph.stats g).Cgraph.spill in
          Alcotest.(check bool)
            (label ^ ": spill engaged") true
            (sp.Cgraph.sp_segments > 0 && sp.Cgraph.sp_bytes > 0);
          Alcotest.(check bool)
            (label ^ ": dedup keys went cold") true
            (sp.Cgraph.sp_frozen > 0);
          same_graph label resident g)
        (dac_reductions 3);
      (* path-based cleanup drops the segment files and the directory *)
      Segstore.clean_dir ~dir;
      Alcotest.(check bool)
        "spill dir fully cleaned" false (Sys.file_exists dir))

(* Interrupting a spilled build, checkpointing it (format 3), and
   resuming yields the uninterrupted graph: the suspended state is
   materialized out of the segments, frozen through the Mirror forms,
   and re-interned on load. *)
let test_spill_checkpoint_resume () =
  let machine, specs, inputs = dac_instance 3 in
  let full = Cgraph.build ~machine ~specs ~inputs () in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      let spill = { Cgraph.spill_dir = dir; spill_threshold = 20 } in
      let partial =
        Cgraph.build ~max_states:100 ~spill ~machine ~specs ~inputs ()
      in
      expect_outcome "quota fired mid-spill" Supervisor.Truncated
        partial.Cgraph.stop;
      Alcotest.(check bool)
        "the partial build really spilled" true
        ((Cgraph.stats partial).Cgraph.spill.Cgraph.sp_segments > 0);
      let s = Option.get partial.Cgraph.suspended in
      let resumed =
        Cgraph.build
          ~resume:(roundtrip_through_disk ~label:"dac3 spilled midway" s)
          ~machine ~specs ~inputs ()
      in
      same_graph "spilled interrupt/resume = uninterrupted" full resumed;
      (* and resuming back INTO a spilled build also agrees *)
      let resumed_spilled =
        Cgraph.build ~spill
          ~resume:(Option.get partial.Cgraph.suspended)
          ~machine ~specs ~inputs ()
      in
      same_graph "resume into a spilled build" full resumed_spilled)

(* The compatibility rule: a coherent checkpoint from an older format
   version — /2 from before the framed sections, /4 from before the
   topology-only graph — raises [Version_mismatch] (CLIs exit 2), never
   [Failure] and never a misread. *)
let test_checkpoint_v2_refused () =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      List.iter
        (fun version ->
          let oc = open_out_bin file in
          output_string oc (version ^ "\nwhatever the old format held");
          close_out oc;
          match Checkpoint.load ~file with
          | exception Checkpoint.Version_mismatch msg ->
            Alcotest.(check bool)
              (version ^ ": names the found version") true
              (contains_sub ~sub:version msg)
          | exception Failure msg ->
            Alcotest.failf "%s reported as plain failure: %s" version msg
          | _ -> Alcotest.failf "%s checkpoint accepted" version)
        [ "LBSA-CHECKPOINT/2"; "LBSA-CHECKPOINT/4" ])

let () =
  Alcotest.run "supervisor"
    [
      ( "outcomes",
        [
          Alcotest.test_case "state quota yields a partial verdict" `Quick
            test_truncation_is_partial_verdict;
          Alcotest.test_case "deadline yields a partial verdict" `Quick
            test_deadline_is_partial_verdict;
          Alcotest.test_case "cancellation wins over the deadline" `Quick
            test_cancellation_is_partial_verdict;
          Alcotest.test_case "SIGINT routes into the token" `Quick
            test_sigint_routes_to_token;
        ] );
      ( "fault isolation",
        [
          Alcotest.test_case "raising machine is contained" `Quick
            test_graph_isolates_raising_machine;
          Alcotest.test_case "parallel level failure keeps the prefix" `Quick
            test_parallel_level_failure;
          Alcotest.test_case "raising checker no longer aborts the sweep"
            `Quick test_sweep_survives_raising_checker;
          Alcotest.test_case "run_shard retry discipline" `Quick
            test_run_shard_retries_then_fails;
          Alcotest.test_case "scan settles the lowest index" `Quick
            test_scan_lowest_index;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "injected failures never change results" `Quick
            test_chaos_preserves_graph_and_verdict;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume from a deadline-0 checkpoint" `Quick
            test_resume_from_deadline_checkpoint;
          Alcotest.test_case "resume from a midway checkpoint" `Quick
            test_resume_from_midway_checkpoint;
          Alcotest.test_case "foreign files rejected" `Quick
            test_checkpoint_rejects_foreign_files;
        ] );
      ( "fuzz budgets",
        [
          Alcotest.test_case "fan stops on budget and resumes" `Quick
            test_fan_budget_stops_and_resumes;
          Alcotest.test_case "fuzz checkpoint roundtrip" `Quick
            test_fuzz_checkpoint_roundtrip;
          Alcotest.test_case "fuzz checkpoint flipped byte refused" `Quick
            test_fuzz_checkpoint_flipped_byte;
          Alcotest.test_case "shrink budget 0 reports no shrink" `Quick
            test_shrink_budget_zero_reports_no_shrink;
        ] );
      ( "cli",
        [
          Alcotest.test_case "interrupt/resume is byte-identical" `Quick
            test_cli_interrupt_resume_byte_identical;
        ] );
      ( "ctbl adversarial",
        [
          Alcotest.test_case "all-equal-hash collisions" `Quick
            test_ctbl_all_equal_hashes;
          Alcotest.test_case "growth from capacity one" `Quick
            test_ctbl_growth_from_capacity_one;
        ] );
      ( "out of core",
        [
          Alcotest.test_case "build = oracle, every reduce mode" `Quick
            test_build_equals_oracle;
          Alcotest.test_case "frozen slots resolve exactly" `Quick
            test_freeze_resolves;
          Alcotest.test_case "spilled build = resident build" `Quick
            test_spill_build_equivalence;
          Alcotest.test_case "spill + checkpoint + resume" `Quick
            test_spill_checkpoint_resume;
          Alcotest.test_case "version-2 checkpoint refused" `Quick
            test_checkpoint_v2_refused;
        ] );
    ]
