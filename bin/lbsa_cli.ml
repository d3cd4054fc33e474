(* The lbsa command-line interface.

     lbsa run-dac -n 4 --scheduler random --seed 7
     lbsa check dac -n 3
     lbsa check consensus -m 2
     lbsa check kset -m 2 -k 2
     lbsa check candidate --name flp-write-read
     lbsa solve dac -n 3 --deadline 60 --checkpoint dac3.ckpt
     lbsa solve dac -n 3 --resume dac3.ckpt
     lbsa valence --protocol cons -m 2
     lbsa power -n 2 --max-k 3
     lbsa separation -n 2 --max-k 3
     lbsa lin-check --impl snapshot -n 3 --trials 200
     lbsa fuzz --impl snapshot:3 --trials 1000 --faults 2 --seed 42
     lbsa objects

   Exit codes, uniformly: 0 = clean pass; 1 = definitive failure
   (unsolvable task, counterexample, violation); 2 = partial outcome
   (state quota, deadline, cancellation, worker failure — rerun bigger,
   longer, or --resume from the checkpoint; also a --resume whose
   parameters mismatch the checkpoint's, which stays resumable under its
   original parameters); 3 = usage error. *)

open Lbsa
open Cmdliner

(* --- shared argument parsing ------------------------------------------ *)

let scheduler_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "rr" ] -> Ok `Rr
    | [ "random" ] -> Ok `Random
    | [ "solo"; pid ] -> (
      match int_of_string_opt pid with
      | Some pid -> Ok (`Solo pid)
      | None -> Error (`Msg "solo:<pid> expects an integer"))
    | _ -> Error (`Msg "scheduler is rr | random | solo:<pid>")
  in
  let print ppf = function
    | `Rr -> Fmt.string ppf "rr"
    | `Random -> Fmt.string ppf "random"
    | `Solo pid -> Fmt.pf ppf "solo:%d" pid
  in
  Arg.conv (parse, print)

let mk_scheduler ~n ~seed = function
  | `Rr -> Scheduler.round_robin ~n
  | `Random -> Scheduler.random ~seed
  | `Solo pid -> Scheduler.solo pid

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Instance size n.")

let m_arg =
  Arg.(value & opt int 2 & info [ "m" ] ~docv:"M" ~doc:"Consensus level m.")

let k_arg =
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Set agreement level k.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let max_k_arg =
  Arg.(
    value
    & opt int 3
    & info [ "max-k" ] ~docv:"K" ~doc:"Length of the power prefix.")

let max_states_arg =
  Arg.(
    value
    & opt int Lbsa_modelcheck.Graph.default_max_states
    & info [ "max-states" ] ~docv:"S"
        ~doc:"State bound for exhaustive exploration.")

let stats_arg =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:
          "Print exploration statistics (states/sec, frontier profile, dedup \
           rate, domains) after the verdict.")

let check_domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Parallelism for input-family sweeps: fan the input vectors across \
           D domains, exploring each vector's graph on a single domain.  0 \
           (default) keeps the sequential sweep with an auto-parallel \
           explorer; 1 is fully sequential.  The verdict — including which \
           failing vector is reported — never depends on this.")

let explorer_domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Explorer worker domains (0 = auto).  The graph and the verdict \
           never depend on this.")

let explorer_domains d = if d <= 0 then None else Some d

let inputs_arg =
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "inputs" ] ~docv:"I1,I2,..."
        ~doc:
          "Full input vector, one integer per process.  Defaults to the \
           task's canonical vector.")

let values l = Array.of_list (List.map Value.int l)

let question_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("solve", Serve_api.Solve); ("valence", Serve_api.Valence);
             ("live", Serve_api.Live) ])
        Serve_api.Solve
    & info [ "question" ] ~docv:"Q"
        ~doc:
          "solve (solvability verdict), valence (graph summary), or live \
           (fair-cycle liveness verdict with a shrunk lasso witness).  \
           Distinct questions have distinct cache keys.")

(* The TASK positional of check and solve, with its size flags. *)
let task_of_flags kind ~n ~m ~k ~name =
  match kind with
  | `Dac -> Serve_api.Dac { n }
  | `Consensus -> Serve_api.Consensus { m }
  | `Kset -> Serve_api.Kset { m; k }
  | `Candidate -> Serve_api.Candidate { name }
  | `Vc -> Serve_api.Vc { n }
  | `Bcast -> Serve_api.Bcast { n }

let task_pos kinds ~doc =
  Arg.(required & pos 0 (some (enum kinds)) None & info [] ~docv:"TASK" ~doc)

let parse_task s =
  Result.map_error (fun m -> `Msg m) (Serve_api.task_of_string s)

let pp_task ppf t = Fmt.string ppf (Serve_api.task_label t)

(* --- out-of-core exploration ------------------------------------------ *)

let spill_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Bound resident memory: once more than --spill-threshold expanded \
           states are resident, the oldest ones move to checksummed segment \
           files under DIR and fault back in on demand.  The explored graph \
           is identical with or without spilling.  Segments are scratch: \
           stale ones are wiped on start and DIR is cleaned when the run \
           completes.")

let spill_threshold_arg =
  Arg.(
    value
    & opt int Lbsa_modelcheck.Graph.default_spill_threshold
    & info [ "spill-threshold" ] ~docv:"S"
        ~doc:
          "Resident expanded states beyond which the oldest spill to \
           --spill-dir (ignored without it).")

let mk_spill dir threshold =
  Option.map
    (fun spill_dir -> { Cgraph.spill_dir; spill_threshold = threshold })
    dir

(* Spilled segments are scratch (Segstore wipes stale ones on start);
   once a run completes cleanly nothing will ever read them again, so
   the CLI removes them — a partial run's are left for inspection and
   are re-spilled from scratch on resume anyway. *)
let clean_spill_on_done spill ~done_ =
  match spill with
  | Some s when done_ -> Lbsa_modelcheck.Segstore.clean_dir ~dir:s.Cgraph.spill_dir
  | _ -> ()

(* --- state-space reduction -------------------------------------------- *)

let reduce_arg =
  Arg.(
    value
    & opt
        (enum [ ("none", `None); ("sym", `Sym); ("sym+sleep", `Sym_sleep) ])
        `None
    & info [ "reduce" ] ~docv:"MODE"
        ~doc:
          "State-space reduction: none (the exact graph), sym \
           (process-symmetry quotient), or sym+sleep (quotient plus \
           commit-step pruning).  Verdicts are identical across modes; \
           state counts, node ids and failure details are not.  See \
           DESIGN.md, 'State-space reduction'.")

(* --- execution substrate ----------------------------------------------- *)

let substrate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "substrate" ] ~docv:"SUB"
        ~doc:
          "Execution substrate: shm (crash-fault shared memory), mp \
           (message passing: adversary-controlled delivery with timeouts), \
           or mp+byz:<f> (mp plus up to <f> Byzantine message injections).  \
           Message-passing tasks (vc, bcast) default to mp, all others to \
           shm, and a task cannot run under the other family's substrate.  \
           The substrate changes the explored graph and the fairness \
           constraints, so it is part of every cache key and checkpoint.")

let live_arg =
  Arg.(
    value
    & flag
    & info [ "live" ]
        ~doc:
          "Ask the liveness question instead of solvability: search the \
           configuration graph for a fair cycle — an admissible livelock \
           under the substrate's fairness constraints — and print a shrunk \
           lasso witness (prefix + cycle, as execution traces) when one \
           exists.  Exit 0 = live, 1 = livelock, 2 = partial (truncated \
           graph, so a Live answer is not definitive).")

(* --- supervision plumbing --------------------------------------------- *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds.  On expiry the run stops at its \
           next safe point and reports a partial outcome (exit 2); 0 stops \
           at the first safe point (useful to force a checkpoint).")

let chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Supervisor self-test: deterministically inject artificial worker \
           failures (first attempt of a shard fails per a pure \
           (seed, block) plan, independent of the domain count; the \
           supervised retry succeeds).  Verdicts must be identical with or \
           without this flag.")

let arm_chaos = function
  | None -> ()
  | Some seed -> Supervisor.Chaos.arm ~seed ()

let io_chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-chaos-seed" ] ~docv:"SEED"
        ~doc:
          "I/O self-test: deterministically inject syscall faults (EINTR, \
           short reads/writes, ENOSPC, EIO) into the persistence and wire \
           layers per a pure (seed, call-site, call-index) plan.  Transient \
           faults are absorbed by the resilient-I/O retry loops; hard \
           faults surface as the same clean refusals a real device error \
           would.  Answers must never change.  Injection counters are \
           reported on stderr at exit.")

let arm_io_chaos = function
  | None -> ()
  | Some seed ->
    Lbsa.Rio.arm ~seed ();
    at_exit (fun () ->
        Fmt.epr "io-chaos: %a@." Lbsa.Rio.pp_counters (Lbsa.Rio.counters ()))

(* Every supervised command: arm chaos if asked, route SIGINT to a
   cancellation token (first ^C = graceful stop + checkpoint, second =
   exit 130), fold the deadline in. *)
let mk_budget ?deadline ~chaos () =
  arm_chaos chaos;
  let token = Supervisor.token () in
  Supervisor.install_sigint token;
  Supervisor.Budget.make ?deadline_s:deadline ~token ()

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "On a partial outcome (deadline, ^C, state quota) write a \
           resumable checkpoint to FILE.  Nothing is written on a \
           definitive verdict.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by --checkpoint.  The run \
           parameters must match the ones recorded in the checkpoint; the \
           combined verdict is identical to an uninterrupted run's.")

(* --- run-dac ----------------------------------------------------------- *)

let run_dac n seed sched_kind =
  let machine = Dac_from_pac.machine ~n in
  let specs = Dac_from_pac.specs ~n in
  let prng = Prng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Prng.int prng 2)) in
  let scheduler = mk_scheduler ~n ~seed sched_kind in
  let r = Executor.run ~machine ~specs ~inputs ~scheduler () in
  Fmt.pr "inputs: %a@." Fmt.(array ~sep:(any " ") Value.pp) inputs;
  Fmt.pr "%a@." Trace.pp r.Executor.trace;
  Array.iteri
    (fun pid st -> Fmt.pr "p%d: %a@." pid Config.pp_status st)
    r.Executor.final.Config.status;
  match Dac.check_safety ~inputs ~trace:r.Executor.trace r.Executor.final with
  | Ok () ->
    Fmt.pr "safety: ok@.";
    0
  | Error viol ->
    Fmt.pr "safety VIOLATION: %a@." Dac.pp_violation viol;
    1

let run_dac_cmd =
  let sched =
    Arg.(
      value
      & opt scheduler_conv `Random
      & info [ "scheduler" ] ~docv:"SCHED" ~doc:"rr | random | solo:<pid>.")
  in
  Cmd.v
    (Cmd.info "run-dac"
       ~doc:"Run Algorithm 2 (n-DAC from one n-PAC) under a schedule.")
    Term.(const run_dac $ n_arg $ seed_arg $ sched)

(* --- check ------------------------------------------------------------- *)

let print_stats verdict family =
  (match verdict.Solvability.stats with
  | Some s -> Fmt.pr "%a@." Cgraph.pp_stats s
  | None -> Fmt.pr "(no exploration statistics recorded)@.");
  Option.iter (Fmt.pr "%a@." Solvability.pp_family_stats) family

(* A witness search answers one of three things; only an exhaustive miss
   may be printed as a liveness-only failure — a truncated search saying
   "no witness" was the false negative this message replaces. *)
let report_witness = function
  | Solvability.Witness w -> Fmt.pr "witness:@.%a@." Solvability.pp_witness w
  | Solvability.No_witness ->
    Fmt.pr "(liveness failure: no safety witness configuration)@."
  | Solvability.Search_truncated o ->
    Fmt.pr
      "(witness search stopped early (%a): no safety violation in the \
       explored prefix; raise --max-states for a definitive witness)@."
      Supervisor.pp_outcome o

(* Every check is one [Serve_api.check] call, printed the way `lbsa
   query` prints the same answer.  A candidate is expected to fail its
   task, so its exit code reads 0 = failed as expected, 1 = unexpectedly
   passed, 2 = partial; a definitive failure also gets a witness. *)
let check kind n m k name max_states stats domains rmode deadline chaos
    substrate live =
  let budget = mk_budget ?deadline ~chaos () in
  let task = task_of_flags kind ~n ~m ~k ~name in
  let question = if live then Serve_api.Live else Serve_api.Solve in
  match
    Serve_api.check ~budget ~domains ~question ~max_states
      ~reduce:rmode ?substrate task
  with
  | exception Invalid_argument msg ->
    Fmt.epr "lbsa check: %s@." msg;
    3
  | { Serve_api.answer; instance = inst; verdict; family } ->
    let candidate = kind = `Candidate && not live in
    if candidate then
      Fmt.pr "candidate %s (%s) — expected to FAIL:@." name
        (match inst.Serve_api.flavor with
        | Serve_api.Check_dac -> Fmt.str "%d-DAC" inst.Serve_api.procs
        | _ -> Fmt.str "consensus among %d" inst.Serve_api.procs);
    Fmt.pr "%s@." (Serve_api.render answer);
    (match (answer, verdict) with
    | Serve_api.Liveness_report { Serve_api.lv_witness = Some w; _ }, _ ->
      Fmt.pr "%s@." w
    | Serve_api.Verdict { Serve_api.v_ok = false; v_partial = false; _ }, Some v
      when candidate ->
      report_witness
        (Serve_api.witness inst ~max_states ~inputs:v.Solvability.inputs)
    | _ -> ());
    if stats then Option.iter (fun v -> print_stats v family) verdict;
    let code = Serve_api.exit_code answer in
    if candidate then match code with 0 -> 1 | 1 -> 0 | c -> c else code

let check_cmd =
  let task =
    task_pos
      [ ("dac", `Dac); ("consensus", `Consensus); ("kset", `Kset);
        ("candidate", `Candidate); ("vc", `Vc); ("bcast", `Bcast) ]
      ~doc:
        "dac | consensus | kset | candidate | vc | bcast.  vc and bcast are \
         message-passing protocols (substrate mp): vc is a view change with \
         a split-vote livelock, bcast its live control."
  in
  let cand_name =
    Arg.(
      value
      & opt string "flp-write-read"
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            (Fmt.str "Candidate name (for candidate): %s."
               (String.concat ", " Serve_api.candidate_names)))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a task (all schedules, all object \
          nondeterminism); with --live, check liveness (fair-cycle \
          search) instead.")
    Term.(
      const check $ task $ n_arg $ m_arg $ k_arg $ cand_name $ max_states_arg
      $ stats_arg $ check_domains_arg $ reduce_arg $ deadline_arg $ chaos_arg
      $ substrate_arg $ live_arg)

(* --- solve -------------------------------------------------------------- *)

(* Single-vector solvability check with the full supervision surface:
   --deadline and ^C stop exploration at a level boundary, --checkpoint
   persists the frozen frontier, --resume thaws and continues it.
   stdout carries only the verdict (checkpoint notes go to stderr), so
   an interrupted-then-resumed run prints byte-for-byte what the
   uninterrupted run prints. *)
let solve kind n m k max_states stats rmode d spill_dir spill_threshold
    deadline chaos io_chaos ckpt_file resume_file inputs =
  arm_io_chaos io_chaos;
  let budget = mk_budget ?deadline ~chaos () in
  let spill = mk_spill spill_dir spill_threshold in
  let task = task_of_flags kind ~n ~m ~k ~name:"" in
  let inst = Serve_api.instance task in
  let inputs =
    values (Option.value inputs ~default:(Serve_api.default_inputs task))
  in
  (* The label pins exactly what defines the graph — task, sizes,
     inputs, reduction mode.  Budget-side knobs (max_states, deadline,
     domains) stay out: a frozen prefix is valid under any of them, and
     resuming a quota-hit run with a larger quota is the point.  A
     mismatch is a graph-shape divergence, not a usage typo, so it
     rejects with the partial-outcome exit code 2: the checkpointed
     work is intact and resumable under the original parameters. *)
  let name =
    match kind with
    | `Dac -> Fmt.str "dac n=%d" n
    | `Consensus -> Fmt.str "consensus m=%d" m
    | `Kset -> Fmt.str "kset m=%d k=%d" m k
  in
  let label =
    Fmt.str "solve %s inputs=%a reduce=%s" name
      Fmt.(array ~sep:(any ",") Value.pp)
      inputs (Serve_api.reduce_name rmode)
  in
  match Option.map (fun file -> Checkpoint.load ~file) resume_file with
  | exception Checkpoint.Version_mismatch msg ->
    (* Old-version checkpoints exit like a parameter mismatch (2): the
       file is coherent, this build just refuses to read it. *)
    Fmt.epr "cannot resume: %s@." msg;
    2
  | exception Checkpoint.Corrupt msg ->
    (* The file is a current-version checkpoint with a damaged body (a
       torn write this format is designed to make impossible, bit rot,
       or an injected fault).  Refuse like a partial outcome: the
       exploration is resumable only by re-running it. *)
    Fmt.epr "cannot resume: corrupt checkpoint: %s@." msg;
    2
  | exception Failure msg ->
    Fmt.epr "cannot resume: %s@." msg;
    3
  | Some c when Checkpoint.substrate c <> "shm" ->
    (* solve runs shared-memory tasks only; a checkpoint frozen under
       another substrate is a different graph.  Refused like any other
       graph-shape divergence: exit 2, the file stays resumable under
       its original parameters. *)
    Fmt.epr
      "cannot resume: checkpoint was explored under substrate %S, this \
       command explores under \"shm\"@."
      (Checkpoint.substrate c);
    2
  | Some c when Checkpoint.label c <> label ->
    Fmt.epr
      "cannot resume: checkpoint is for %S, this invocation is %S; rerun \
       with the original parameters (or drop --resume)@."
      (Checkpoint.label c) label;
    2
  | resume ->
    let v =
      Serve_api.solvability inst ~max_states ?domains:(explorer_domains d)
        ~budget ~reduce:(Serve_api.reduction_for inst rmode)
        ?resume:(Option.map Checkpoint.thaw resume) ?spill ~inputs ()
    in
    (match (ckpt_file, v.Solvability.suspended) with
    | Some file, Some s when Supervisor.is_partial v.Solvability.outcome ->
      Checkpoint.save ~file (Checkpoint.freeze ~label s);
      Fmt.epr "checkpoint written to %s (resume with --resume %s)@." file
        file
    | _ -> ());
    clean_spill_on_done spill
      ~done_:(v.Solvability.outcome = Supervisor.Done);
    Fmt.pr "%a@." Solvability.pp_verdict v;
    if stats then print_stats v None;
    Supervisor.exit_code ~ok:v.Solvability.ok v.Solvability.outcome

let solve_cmd =
  let task =
    task_pos
      [ ("dac", `Dac); ("consensus", `Consensus); ("kset", `Kset) ]
      ~doc:"dac | consensus | kset."
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Model-check a single input vector under a supervision budget: \
          --deadline and ^C stop at a safe point with a partial verdict \
          (exit 2), --checkpoint persists the frozen exploration, --resume \
          continues it to the same verdict an uninterrupted run prints.")
    Term.(
      const solve $ task $ n_arg $ m_arg $ k_arg $ max_states_arg $ stats_arg
      $ reduce_arg $ explorer_domains_arg $ spill_dir_arg $ spill_threshold_arg
      $ deadline_arg $ chaos_arg $ io_chaos_arg
      $ checkpoint_arg $ resume_arg $ inputs_arg)

(* --- valence ------------------------------------------------------------ *)

(* The consensus and dac protocols, or any candidate. *)
let valence name n m max_states stats rmode spill_dir spill_threshold =
  let spill = mk_spill spill_dir spill_threshold in
  let task =
    match name with
    | "cons" -> Some (Serve_api.Consensus { m })
    | "dac" -> Some (Serve_api.Dac { n })
    | name when List.mem name Serve_api.candidate_names ->
      Some (Serve_api.Candidate { name })
    | _ -> None
  in
  match task with
  | None ->
    Fmt.epr "unknown protocol %S; known: %s@." name
      (String.concat ", " ("cons" :: "dac" :: Serve_api.candidate_names));
    3
  | Some task ->
    let inst = Serve_api.instance task in
    let machine = inst.Serve_api.machine and specs = inst.Serve_api.specs in
    let inputs = values (Serve_api.default_inputs task) in
    let graph =
      Cgraph.build ~max_states ~reduce:(Serve_api.reduction_for inst rmode)
        ?spill ~machine ~specs ~inputs ()
    in
    if stats then Fmt.pr "%a@." Cgraph.pp_stats (Cgraph.stats graph);
    let a = Valence.analyze graph in
    let s = Valence.summarize a in
    Fmt.pr "protocol %s, inputs %a: %d configurations (%d edges)%s@." name
      Fmt.(array ~sep:(any " ") Value.pp)
      inputs (Cgraph.n_nodes graph) (Cgraph.n_edges graph)
      (if graph.Cgraph.truncated then " [TRUNCATED]" else "");
    Fmt.pr "valence: %d bivalent, %d univalent, %d undecided@."
      s.Valence.n_bivalent s.Valence.n_univalent s.Valence.n_undecided;
    Fmt.pr "initial: %a@." Valence.pp_classification
      (Valence.classify a graph.Cgraph.initial);
    let criticals = Bivalency.report_critical ~machine ~specs graph a in
    Fmt.pr "critical configurations: %d@." (List.length criticals);
    List.iteri
      (fun i (r : Bivalency.critical_report) ->
        if i < 3 then
          Fmt.pr "  node %d: common poised object = %s@." r.Bivalency.node
            (Option.value r.Bivalency.object_name ~default:"(none)"))
      criticals;
    (match Bivalency.bivalence_maintainable a graph with
    | Ok () when s.Valence.n_bivalent > 0 ->
      Fmt.pr "bivalence maintainable: adversary avoids decisions forever@."
    | Ok () -> Fmt.pr "no bivalent configurations@."
    | Error id -> Fmt.pr "bivalent dead-end at node %d@." id);
    clean_spill_on_done spill ~done_:(not graph.Cgraph.truncated);
    0

let valence_cmd =
  let proto_name =
    Arg.(
      value
      & opt string "cons"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:
            (Fmt.str "cons | dac | a candidate (%s)."
               (String.concat ", " Serve_api.candidate_names)))
  in
  Cmd.v
    (Cmd.info "valence"
       ~doc:"Compute the valence structure of a protocol's configuration graph.")
    Term.(
      const valence $ proto_name $ n_arg $ m_arg $ max_states_arg $ stats_arg
      $ reduce_arg $ spill_dir_arg $ spill_threshold_arg)

(* --- explore ------------------------------------------------------------ *)

(* Machine-readable single-graph exploration, built for the out-of-core
   benchmarks: each case runs in its own process so the reported peak
   RSS (VmHWM from /proc/self/status) is honestly per-run — the parent
   bench never inherits a child's high-water mark — and the key=value
   stdout is trivially parseable.  [--fingerprint] appends the
   structural graph fingerprint used by the spilled-vs-resident
   equivalence checks; it reads every configuration (faulting each
   segment once, in order), so the big memory-bound cases skip it. *)

let explore_task_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "of"; n; r ] -> (
      match (int_of_string_opt n, int_of_string_opt r) with
      | Some n, Some r when n >= 2 && r >= 1 -> Ok (`Of (n, r))
      | _ ->
        Error (`Msg (Fmt.str "%S: of:<n>:<rounds> needs n >= 2, rounds >= 1" s))
      )
    | _ -> Result.map (fun t -> `Task t) (parse_task s)
  in
  let print ppf = function
    | `Of (n, r) -> Fmt.pf ppf "of:%d:%d" n r
    | `Task t -> pp_task ppf t
  in
  Arg.conv (parse, print)

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              try
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
              with Scanf.Scan_failure _ | Failure _ -> 0
            else go ()
        in
        go ())

(* The structural fold behind both graph fingerprints (explore's and
   `lbsa fingerprint`'s): per-node [Config.hash] in id order, then each
   node's (pid, target) out-steps.  Intern ids never enter, so the value
   is identical across processes, domain counts and spill settings. *)
let hash_step h k = Value.hash_combine h k land max_int

let graph_hash graph =
  let h = ref 0x811c9dc5 in
  for id = 0 to Cgraph.n_nodes graph - 1 do
    h := hash_step !h (Config.hash (Cgraph.node graph id));
    Cgraph.iter_out_steps graph id (fun pid target ->
        h := hash_step (hash_step !h pid) target)
  done;
  !h

let explore task max_states rmode d spill_dir spill_threshold deadline chaos
    want_fp want_stats =
  let budget = mk_budget ?deadline ~chaos () in
  let spill = mk_spill spill_dir spill_threshold in
  let substrate, inst, inputs =
    match task with
    | `Task t ->
      let substrate, inst = Serve_api.resolve t in
      (substrate, inst, values (Serve_api.default_inputs t))
    | `Of (n, r) ->
      (* No certified symmetry group: [sym] degrades to the identity
         quotient, like free-form candidates.  [`Spin] makes spun-out
         states absorbing livelock leaves, so the bounded graph is
         finite and the exploration can actually complete. *)
      ( Substrate.shm,
        {
          Serve_api.machine = Obstruction_free.machine_spin ~n ~max_rounds:r;
          specs = Obstruction_free.specs ~n ~max_rounds:r;
          procs = n;
          flavor = Serve_api.Check_consensus;
          canon = Canon.identity;
          frozen = None;
        },
        values (List.init n (fun pid -> pid mod 2)) )
  in
  let graph =
    Cgraph.build ~max_states ?domains:(explorer_domains d) ~budget ~substrate
      ~reduce:(Serve_api.reduction_for inst rmode) ?spill
      ~machine:inst.Serve_api.machine ~specs:inst.Serve_api.specs ~inputs ()
  in
  let s = Cgraph.stats graph in
  let outcome =
    match graph.Cgraph.stop with
    | Supervisor.Done -> "done"
    | Supervisor.Truncated -> "truncated"
    | Supervisor.Deadline -> "deadline"
    | Supervisor.Cancelled -> "cancelled"
    | Supervisor.Worker_failed _ -> "worker_failed"
  in
  let fp = if want_fp then Some (graph_hash graph land 0xffffffff) else None in
  if want_stats then Fmt.epr "%a@." Cgraph.pp_stats s;
  Fmt.pr "task=%a@." (Arg.conv_printer explore_task_conv) task;
  Fmt.pr "reduce=%s@." (Serve_api.reduce_name rmode);
  Fmt.pr "states=%d@." s.Cgraph.states;
  Fmt.pr "edges=%d@." s.Cgraph.edges;
  Fmt.pr "levels=%d@." s.Cgraph.levels;
  Fmt.pr "truncated=%b@." graph.Cgraph.truncated;
  Fmt.pr "outcome=%s@." outcome;
  Fmt.pr "wall_s=%.6f@." s.Cgraph.wall_s;
  Fmt.pr "states_per_sec=%.1f@." s.Cgraph.states_per_sec;
  Fmt.pr "domains=%d@." s.Cgraph.domains;
  Fmt.pr "dedup_rate=%.4f@." s.Cgraph.dedup_rate;
  Fmt.pr "spill_segments=%d@." s.Cgraph.spill.Cgraph.sp_segments;
  Fmt.pr "spill_bytes=%d@." s.Cgraph.spill.Cgraph.sp_bytes;
  Fmt.pr "seg_faults=%d@." s.Cgraph.spill.Cgraph.sp_seg_faults;
  Fmt.pr "frozen_keys=%d@." s.Cgraph.spill.Cgraph.sp_frozen;
  Fmt.pr "key_faults=%d@." s.Cgraph.spill.Cgraph.sp_key_faults;
  Fmt.pr "peak_rss_kb=%d@." (peak_rss_kb ());
  (match fp with
  | Some fp -> Fmt.pr "fingerprint=%08x@." fp
  | None -> ());
  clean_spill_on_done spill ~done_:(graph.Cgraph.stop = Supervisor.Done);
  Supervisor.exit_code ~ok:true graph.Cgraph.stop

let explore_cmd =
  let task =
    Arg.(
      required
      & pos 0 (some explore_task_conv) None
      & info [] ~docv:"TASK"
          ~doc:
            "A task in query syntax (dac:<n>, cons:<m>, kset:<m>:<k>, \
             cand:<name>, vc:<n>, bcast:<n>) or of:<n>:<rounds> \
             (obstruction-free consensus, <rounds> commit-adopt rounds).")
  in
  let fp =
    Arg.(
      value
      & flag
      & info [ "fingerprint" ]
          ~doc:
            "Append the structural graph fingerprint (reads every \
             configuration; skip it for memory-bound runs).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Build one configuration graph and print machine-readable \
          key=value telemetry (states, throughput, spill counters, \
          per-process peak RSS).  The benchmark harness runs \
          each case through this command in a fresh process so peak-RSS \
          numbers are honest.  Exit 0 on a complete graph, 2 on a \
          partial one.")
    Term.(
      const explore $ task $ max_states_arg $ reduce_arg $ explorer_domains_arg
      $ spill_dir_arg $ spill_threshold_arg $ deadline_arg $ chaos_arg $ fp
      $ stats_arg)

(* --- power / separation ------------------------------------------------- *)

let power n max_k max_states =
  Fmt.pr "closed forms / lower bounds:@.";
  Fmt.pr "  %d-consensus: (%a)@." n
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.consensus_power ~m:n ~max_k);
  Fmt.pr "  2-SA:        (%a)@."
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.sa2_power ~max_k);
  Fmt.pr "  O_%d (>=):    (%a)@." n
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.o_n_power_lower ~n ~max_k);
  Fmt.pr "probes (exhaustive lower-bound checks):@.";
  let p = Power.probe_o_n_consensus ~n ~max_states () in
  Fmt.pr "  O_%d consensus: %a@." n Power.pp_probe p;
  let power = O_prime.default_power ~n ~max_k in
  List.iter
    (fun k ->
      let p = Power.probe_oprime_family ~power ~k ~max_states () in
      Fmt.pr "  O'_%d level %d: %a@." n k Power.pp_probe p)
    (Listx.range 1 (min max_k 2));
  0

let power_cmd =
  Cmd.v
    (Cmd.info "power" ~doc:"Set agreement power: closed forms and probes.")
    Term.(const power $ n_arg $ max_k_arg $ max_states_arg)

let separation n max_k max_states =
  let report = Separation.analyze ~max_k ~max_states ~n () in
  Fmt.pr "%a@." Separation.pp_report report;
  if Separation.all_ok report then 0 else 1

let separation_cmd =
  Cmd.v
    (Cmd.info "separation"
       ~doc:"Assemble the Corollary 6.6 artifacts for a given n.")
    Term.(const separation $ n_arg $ max_k_arg $ max_states_arg)

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz impl_names spec_names trials procs ops faults seed no_shrink domains
    deadline chaos shrink_budget ckpt_file resume_file =
  let budget = mk_budget ?deadline ~chaos () in
  let shrink = not no_shrink in
  let domains = if domains <= 0 then None else Some domains in
  let parse_targets ~what ~parse names =
    List.filter_map
      (fun name ->
        match parse name with
        | t -> Some t
        | exception Invalid_argument msg ->
          Fmt.epr "unknown %s target %S: %s@." what name msg;
          None)
      names
  in
  let impls = parse_targets ~what:"impl" ~parse:Fuzz_targets.impl_target impl_names in
  let specs = parse_targets ~what:"spec" ~parse:Fuzz_targets.spec_target spec_names in
  if trials < 1 then begin
    Fmt.epr "--trials must be >= 1, got %d@." trials;
    3
  end
  else if
    List.length impls < List.length impl_names
    || List.length specs < List.length spec_names
  then 3
  else begin
    match
      Option.map (fun file -> Fuzz_engine.load_checkpoint ~file) resume_file
    with
    | exception Failure msg ->
      Fmt.epr "cannot resume: %s@." msg;
      3
    | Some c when c.Fuzz_engine.ckpt_seed <> seed ->
      Fmt.epr "cannot resume: checkpoint records --seed %d, this run uses %d@."
        c.Fuzz_engine.ckpt_seed seed;
      3
    | resume ->
      let start_of ~cap name =
        match resume with
        | None -> 0
        | Some c -> min cap (Fuzz_engine.resume_start c ~name)
      in
      (* Default campaign: every registry spec at full budget, every honest
         construction at a fifth of it (harness trials are ~5x dearer). *)
      let specs, impls, impl_trials =
        if impls = [] && specs = [] then
          (Fuzz_targets.all_specs (), Fuzz_targets.all_impls (),
           max 1 (trials / 5))
        else (specs, impls, trials)
      in
      let reports =
        List.map
          (fun t ->
            Fuzz_engine.fuzz_spec ?domains ~shrink ~shrink_budget ~budget
              ~start:(start_of ~cap:trials ("spec " ^ t.Fuzz_targets.desc))
              ~procs ~ops_per_proc:ops ~trials ~seed t)
          specs
        @ List.map
            (fun t ->
              Fuzz_engine.fuzz_impl ?domains ~shrink ~shrink_budget ~budget
                ~start:
                  (start_of ~cap:impl_trials ("impl " ^ t.Fuzz_targets.idesc))
                ~faults ~ops_per_proc:ops ~trials:impl_trials ~seed t)
            impls
      in
      List.iter (fun r -> Fmt.pr "%a@." Fuzz_engine.pp_report r) reports;
      let failed =
        Lbsa_util.Listx.count
          (fun r -> r.Fuzz_engine.failure <> None)
          reports
      in
      let partial =
        List.exists
          (fun r -> Supervisor.is_partial r.Fuzz_engine.outcome)
          reports
      in
      (match ckpt_file with
      | Some file when partial ->
        Fuzz_engine.save_checkpoint ~file
          (Fuzz_engine.checkpoint_of_reports ~seed reports);
        Fmt.epr "checkpoint written to %s (resume with --resume %s)@." file
          file
      | _ -> ());
      if failed > 0 then begin
        Fmt.pr "fuzz: %d/%d campaigns FAILED@." failed (List.length reports);
        1
      end
      else if partial then begin
        Fmt.pr "fuzz: %d campaigns stopped early, no failures@."
          (List.length reports);
        2
      end
      else begin
        Fmt.pr "fuzz: %d campaigns clean@." (List.length reports);
        0
      end
  end

let fuzz_cmd =
  let impl_names =
    Arg.(
      value
      & opt_all string []
      & info [ "impl" ] ~docv:"NAME"
          ~doc:
            "Implementation target (repeatable): snapshot:<n>, \
             naive-snapshot:<n>, pacnm:<n>:<m>, oprime:<n>:<K>, \
             universal:<n>, pac-facet:<n>:<m>, cons-facet:<n>:<m>, \
             mutant-pac:<n>, identity:<object>.  Without --impl/--spec, \
             fuzzes every registry spec and every honest construction.")
  in
  let spec_names =
    Arg.(
      value
      & opt_all string []
      & info [ "spec" ] ~docv:"NAME"
          ~doc:"Spec target in registry syntax (repeatable), e.g. pac:2.")
  in
  let trials =
    Arg.(
      value & opt int 1000
      & info [ "trials" ] ~docv:"T" ~doc:"Trials per campaign.")
  in
  let procs =
    Arg.(
      value & opt int 3
      & info [ "procs" ] ~docv:"P"
          ~doc:
            "Client count for spec-level fuzzing (implementations fix their \
             own).")
  in
  let ops =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"K" ~doc:"Max operations per process.")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"F"
          ~doc:"Max crash victims per implementation trial.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip counterexample shrinking.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains (0 = auto).  Results never depend on this.")
  in
  let shrink_budget =
    Arg.(
      value
      & opt int Fuzz_engine.default_shrink_budget
      & info [ "shrink-budget" ] ~docv:"B"
          ~doc:
            "Candidate evaluations allowed per shrink descent (0 keeps the \
             unshrunk counterexample).  Shrinking also stops when \
             --deadline fires.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Conformance-fuzz objects and implementations: random workloads, \
          schedules, and crash faults under the linearizability oracle, with \
          seed-reproducible shrunk counterexamples.")
    Term.(
      const fuzz $ impl_names $ spec_names $ trials $ procs $ ops $ faults
      $ seed_arg $ no_shrink $ domains $ deadline_arg $ chaos_arg
      $ shrink_budget $ checkpoint_arg $ resume_arg)

(* --- lin-check / universal ----------------------------------------------- *)

(* lin-check and universal are views over fuzz: their flags name one
   implementation target, and the campaign, shrinking, report and exit
   code are fuzz's own, at fuzz's defaults for what they do not
   expose. *)
let fuzz_one desc ~trials ~seed ~deadline =
  let procs = 3 and ops = 4 and faults = 0 and no_shrink = false in
  let domains = 0 and chaos = None and ckpt_file = None and resume_file = None in
  fuzz [ desc ] [] trials procs ops faults seed no_shrink domains deadline chaos
    Fuzz_engine.default_shrink_budget ckpt_file resume_file

let lin_check name n m max_k trials seed deadline =
  match name with
  | "snapshot" | "naive-snapshot" ->
    fuzz_one (Fmt.str "%s:%d" name n) ~trials ~seed ~deadline
  | "pacnm" -> fuzz_one (Fmt.str "pacnm:%d:%d" n m) ~trials ~seed ~deadline
  | "oprime" ->
    fuzz_one (Fmt.str "oprime:%d:%d" n max_k) ~trials ~seed ~deadline
  | _ ->
    Fmt.epr
      "unknown implementation %S; known: snapshot, naive-snapshot, pacnm, \
       oprime@."
      name;
    3

let lin_check_cmd =
  let impl_name =
    Arg.(
      value
      & opt string "snapshot"
      & info [ "impl" ] ~docv:"NAME"
          ~doc:
            "snapshot | naive-snapshot (fuzz target NAME:N), pacnm \
             (pacnm:N:M) or oprime (oprime:N:K).")
  in
  let trials =
    Arg.(
      value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Random trials.")
  in
  Cmd.v
    (Cmd.info "lin-check"
       ~doc:
         "Drive an implementation with concurrent clients and check \
          linearizability: the fuzz campaign of the named target, with \
          fuzz's report and exit codes.")
    Term.(
      const lin_check $ impl_name $ n_arg $ m_arg $ max_k_arg $ trials
      $ seed_arg $ deadline_arg)

let universal n trials seed =
  fuzz_one (Fmt.str "universal:%d" n) ~trials ~seed ~deadline:None

let universal_cmd =
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Random trials.")
  in
  Cmd.v
    (Cmd.info "universal"
       ~doc:"Run Herlihy's universal construction (queue target) and check \
             linearizability: the fuzz campaign of universal:N.")
    Term.(const universal $ n_arg $ trials $ seed_arg)

(* --- bg / qadri ----------------------------------------------------------- *)

let bg simulators trials seed =
  let p = Sim_protocol.min_seen ~n_sim:3 ~steps:1 in
  let sim_inputs = [| Value.int 10; Value.int 11; Value.int 12 |] in
  let outcomes = Sim_protocol.direct_outcomes p ~inputs:sim_inputs in
  Fmt.pr
    "BG simulation: %d simulators run a 3-process protocol; %d direct \
     outcomes possible; %d random schedules...@."
    simulators (List.length outcomes) trials;
  let prng = Prng.create seed in
  let bad = ref 0 in
  for _ = 1 to trials do
    let r =
      Bg_simulation.run ~p ~sim_inputs ~simulators
        ~scheduler:(Scheduler.random ~seed:(Prng.int prng 1_000_000_000)) ()
    in
    match r.Bg_simulation.simulated_decisions with
    | Some ds when List.exists (Value.equal (Value.list ds)) outcomes -> ()
    | _ -> incr bad
  done;
  Fmt.pr "%d/%d runs produced genuine simulated outcomes@." (trials - !bad)
    trials;
  if !bad = 0 then 0 else 1

let bg_cmd =
  let simulators =
    Arg.(value & opt int 2 & info [ "simulators" ] ~docv:"S" ~doc:"Simulator count.")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Random trials.")
  in
  Cmd.v
    (Cmd.info "bg" ~doc:"Run the Borowsky-Gafni simulation and validate outcomes.")
    Term.(const bg $ simulators $ trials $ seed_arg)

let qadri m n max_states =
  let report = Qadri.analyze ~max_states ~m ~n () in
  Fmt.pr "%a@." Qadri.pp_report report;
  if Qadri.all_ok report then 0 else 1

let qadri_cmd =
  Cmd.v
    (Cmd.info "qadri"
       ~doc:"Assemble the Theorem 7.1 artifacts for given m and n (needs \
             m >= 2, n >= m+1).")
    Term.(const qadri $ m_arg $ n_arg $ max_states_arg)

(* --- objects -------------------------------------------------------------- *)

let objects () =
  Fmt.pr "object registry (for --protocol style arguments):@.";
  List.iter (fun (syntax, doc) -> Fmt.pr "  %-16s %s@." syntax doc) Registry.known;
  0

let objects_cmd =
  Cmd.v
    (Cmd.info "objects" ~doc:"List the object zoo.")
    Term.(const objects $ const ())

(* --- fingerprint ----------------------------------------------------------- *)

(* Structural fingerprint of a fixed configuration graph, for the
   cross-process determinism regression: two runs of this command must
   print identical lines no matter how many unrelated values were
   interned first.  Intern ids are allocation-order-dependent, so if one
   ever leaked into a hash, a node id or an ordering, shifting the id
   space with [--intern-warmup] would change the output.  The fold below
   deliberately touches only structural data: per-node [Config.hash]
   (purely structural by construction) in node-id order, then each
   node's out-edge (pid, target) sequence.

   The fingerprint must also pin every parameter the graph is a function
   of.  It originally folded structure only and ignored the reduction
   mode, the input vector and the state quota — so `--reduce sym` on
   inputs 0,1,1 could collide with the exact graph on the default
   inputs.  Those parameters now join the fold, and the printed [key=]
   field is the serve cache's canonical digest for the equivalent
   solvability query ({!Serve_api.key}), tying the two fingerprint
   notions together. *)
let fingerprint warmup n max_states mode question substrate inputs_opt =
  for i = 1 to warmup do
    ignore (Value.list [ Value.int (1_000_000 + i); Value.sym "warmup" ])
  done;
  let task = Serve_api.Dac { n } in
  let substrate =
    Option.value substrate ~default:(Serve_api.default_substrate task)
  in
  let raw_inputs =
    Option.value inputs_opt ~default:(Serve_api.default_inputs task)
  in
  if List.length raw_inputs <> n then begin
    Fmt.epr "lbsa fingerprint: dac:%d expects %d inputs, got %d@." n n
      (List.length raw_inputs);
    3
  end
  else begin
    let inst = Serve_api.instance task in
    let inputs = values raw_inputs in
    let graph =
      Cgraph.build ~max_states ~reduce:(Serve_api.reduction_for inst mode)
        ~machine:inst.Serve_api.machine ~specs:inst.Serve_api.specs ~inputs ()
    in
    let h = ref (graph_hash graph) in
    let comb k = h := hash_step !h k in
    let comb_string = String.iter (fun c -> comb (Char.code c)) in
    comb_string (Serve_api.reduce_name mode);
    Array.iter (fun v -> comb (Value.hash v)) inputs;
    comb max_states;
    (* The question and substrate don't change the dac graph fold above
       (the command always explores dac under shm), but they do change
       which serve query the printed key addresses — and the key
       separation is the point: a liveness answer and a safety answer,
       or the same task under different fairness, must never share a
       cache slot. *)
    comb_string (Serve_api.question_label question);
    comb_string substrate;
    let q =
      Serve_api.Verify
        {
          task;
          question;
          inputs = raw_inputs;
          max_states;
          reduce = mode;
          substrate;
        }
    in
    Fmt.pr
      "states=%d edges=%d truncated=%b reduce=%s question=%s substrate=%s \
       fingerprint=%08x key=%s@."
      (Cgraph.n_nodes graph) (Cgraph.n_edges graph) graph.Cgraph.truncated
      (Serve_api.reduce_name mode)
      (Serve_api.question_label question)
      substrate
      (!h land 0xffffffff)
      (Serve_api.key q);
    0
  end

let fingerprint_cmd =
  let warmup =
    Arg.(
      value
      & opt int 0
      & info [ "intern-warmup" ] ~docv:"N"
          ~doc:
            "Construct N throwaway values before building the graph, \
             shifting every subsequent intern id.  The printed fingerprint \
             must not change.")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print a structural fingerprint of the dac configuration graph \
          (cross-process determinism probe: output must be independent of \
          value-interning order, and must pin the reduction mode, input \
          vector, state quota, question and substrate).")
    Term.(
      const fingerprint $ warmup $ n_arg $ max_states_arg $ reduce_arg
      $ question_arg $ substrate_arg $ inputs_arg)

(* --- serve / query / shutdown ---------------------------------------------- *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "lbsa-serve.sock"

let default_store =
  Filename.concat (Filename.get_temp_dir_name ()) "lbsa-store"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let store_arg =
  Arg.(
    value
    & opt string default_store
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent result-store directory (content-addressed, \
           checksummed; survives daemon restarts).")

let wait_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "wait" ] ~docv:"SEC"
        ~doc:
          "Keep retrying the connection for up to SEC seconds while the \
           daemon's socket is absent (start-then-query races in scripts).")

let serve socket store workers default_deadline store_probe io_chaos quiet =
  arm_io_chaos io_chaos;
  let cfg =
    {
      Serve_daemon.socket;
      store_dir = store;
      workers;
      default_deadline_s = default_deadline;
      store_probe_s = store_probe;
      log = not quiet;
    }
  in
  match Serve_daemon.run cfg with
  | stats ->
    Fmt.pr "%a@." Serve_wire.pp_stats stats;
    0
  | exception Failure msg ->
    Fmt.epr "lbsa serve: %s@." msg;
    1

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt int 2
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SEC"
          ~doc:
            "Per-query wall-clock cap applied when the client sets none; \
             a cut query reports a partial result and (for fuzz) persists \
             its completed prefix.")
  in
  let store_probe =
    Arg.(
      value
      & opt float 5.
      & info [ "store-probe" ] ~docv:"SEC"
          ~doc:
            "While the store is degraded (ENOSPC, EROFS, persistent I/O \
             errors) the daemon keeps answering from computation alone and \
             re-probes the store every SEC seconds, re-enabling persistence \
             once a probe write commits.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No chatter on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent verification daemon: a worker pool answering \
          solvability/valence/fuzz queries over a unix socket, memoizing \
          every key-determined answer in a content-addressed store.  A \
          failing store degrades the daemon to compute-only answers (with \
          periodic re-probing), never to failed queries.  Blocks until \
          `lbsa shutdown`; prints the final counters.")
    Term.(const serve $ socket_arg $ store_arg $ workers $ default_deadline
          $ store_probe $ io_chaos_arg $ quiet)

let query task fuzz_target question substrate inputs_opt max_states mode trials
    procs ops seed socket wait_s deadline want_stats =
  let fail msg =
    Fmt.epr "lbsa query: %s@." msg;
    3
  in
  let with_client f =
    match Serve_client.connect ~wait_s ~socket () with
    | Error msg -> fail msg
    | Ok c -> Fun.protect ~finally:(fun () -> Serve_client.close c)
                (fun () -> f c)
  in
  let ask q =
    with_client (fun c ->
        match Serve_client.query ?deadline_s:deadline c q with
        | Error msg -> fail msg
        | Ok (res, cached, wall_us) ->
          Fmt.epr "lbsa query: %s in %.1f ms@."
            (if cached then "cache hit" else "computed")
            (wall_us /. 1000.);
          Fmt.pr "%s@." (Serve_api.render res);
          Serve_api.exit_code res)
  in
  if want_stats then
    with_client (fun c ->
        match Serve_client.stats c with
        | Error msg -> fail msg
        | Ok s ->
          Fmt.pr "%a@." Serve_wire.pp_stats s;
          0)
  else
    match (task, fuzz_target) with
    | Some _, Some _ -> fail "give either a TASK or --fuzz, not both"
    | None, None -> fail "nothing to ask: give a TASK, --fuzz, or --stats"
    | Some task, None ->
      let inputs =
        Option.value inputs_opt ~default:(Serve_api.default_inputs task)
      in
      let substrate =
        Option.value substrate ~default:(Serve_api.default_substrate task)
      in
      ask
        (Serve_api.Verify
           { task; question; inputs; max_states; reduce = mode; substrate })
    | None, Some target ->
      ask (Serve_api.Fuzz { target; trials; procs; ops; seed })

let query_cmd =
  let task =
    Arg.(
      value
      & pos 0 (some (Arg.conv (parse_task, pp_task))) None
      & info [] ~docv:"TASK"
          ~doc:
            "dac:<n> | cons:<m> | kset:<m>:<k> | cand:<name> | vc:<n> | \
             bcast:<n>.")
  in
  let fuzz_target =
    Arg.(
      value
      & opt (some string) None
      & info [ "fuzz" ] ~docv:"IMPL"
          ~doc:
            "Instead of a verification question, run (or resume) a \
             conformance-fuzz campaign against this registry \
             implementation.")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Fuzz trials.")
  in
  let procs =
    Arg.(value & opt int 3 & info [ "procs" ] ~docv:"P" ~doc:"Fuzz processes.")
  in
  let ops =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"O" ~doc:"Fuzz ops per process.")
  in
  let want_stats =
    Arg.(
      value
      & flag
      & info [ "stats" ] ~doc:"Print the daemon's counters instead of asking.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Ask the verification daemon.  Cold answers are computed by the \
          worker pool and memoized; identical queries — across clients and \
          daemon restarts — come back from the cache, byte-identical.  \
          Exit codes follow the CLI-wide 0/1/2 policy for the answer \
          itself; 3 means the daemon could not be reached or the query was \
          malformed.")
    Term.(
      const query $ task $ fuzz_target $ question_arg $ substrate_arg $ inputs_arg
      $ max_states_arg $ reduce_arg $ trials $ procs $ ops $ seed_arg
      $ socket_arg $ wait_arg $ deadline_arg $ want_stats)

let shutdown socket wait_s =
  match Serve_client.connect ~wait_s ~socket () with
  | Error msg ->
    Fmt.epr "lbsa shutdown: %s@." msg;
    1
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Serve_client.close c)
      (fun () ->
        match Serve_client.shutdown c with
        | Ok (Some stats) ->
          Fmt.pr "%a@." Serve_wire.pp_stats stats;
          0
        | Ok None -> 0
        | Error msg ->
          Fmt.epr "lbsa shutdown: %s@." msg;
          1)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Drain and stop the verification daemon: it finishes and answers \
          every queued and in-flight query, then exits; this command \
          blocks until the drain completes and prints the final counters.")
    Term.(const shutdown $ socket_arg $ wait_arg)

(* --- main ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "lbsa" ~version:"1.0.0"
      ~doc:
        "Executable reproduction of 'Life Beyond Set Agreement' (PODC 2017)."
  in
  let cmd =
    Cmd.group info
      [
        run_dac_cmd; check_cmd; solve_cmd; valence_cmd; explore_cmd; power_cmd;
        separation_cmd; lin_check_cmd; fuzz_cmd; universal_cmd; bg_cmd;
        qadri_cmd; objects_cmd; fingerprint_cmd; serve_cmd; query_cmd;
        shutdown_cmd;
      ]
  in
  (* cmdliner's own exit for a usage error is 124; the CLI-wide policy
     says 3. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 3
    | Error `Exn -> Cmd.Exit.internal_error)
