(* The benchmark and experiment-table harness.

   The paper has no empirical tables or figures (it is a pure theory
   paper); DESIGN.md defines verification experiments T1-T10 in their
   place, and this executable regenerates every one of them, followed by
   bechamel micro-benchmarks (B1-B6) of the substrate itself.

   Run:  dune exec bench/main.exe          (tables + micro-benchmarks)
         dune exec bench/main.exe tables   (tables only)
         dune exec bench/main.exe micro    (micro-benchmarks only)      *)

open Lbsa

let hr title = Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '-')

let cell = Fmt.pr "| %-52s | %-36s |@."

let verdict_cell (v : Solvability.verdict) ~expect_ok =
  let status =
    if v.Solvability.ok = expect_ok then "as predicted" else "MISMATCH"
  in
  Fmt.str "%s: %s (%d states)" status
    (if v.Solvability.ok then "solved" else "failed")
    v.Solvability.states

(* ---------------------------------------------------------------------- *)
(* T1: n-PAC semantics (Lemmas 3.2-3.4, Theorem 3.5).                     *)

let table_t1 () =
  hr "T1  n-PAC object semantics (Algorithm 1; Lemmas 3.2-3.4, Thm 3.5)";
  (* Exhaustive: all op sequences of depth <= 6 over 2 labels. *)
  let n = 2 in
  let pac = Pac.spec ~n () in
  let alphabet =
    [ Pac.propose (Value.int 1) 1; Pac.propose (Value.int 2) 2;
      Pac.decide 1; Pac.decide 2 ]
  in
  let histories = ref 0 and consistent = ref 0 in
  let rec go state history depth =
    incr histories;
    let h = List.rev history in
    if Pac.is_upset state = not (Pac.history_legal ~n h) then incr consistent;
    if depth > 0 then
      List.iter
        (fun op ->
          let state', response = Obj_spec.apply_det pac state op in
          go state' (Shistory.event op response :: history) (depth - 1))
        alphabet
  in
  go pac.Obj_spec.initial [] 6;
  cell "histories enumerated (depth ≤ 6, n = 2)" (string_of_int !histories);
  cell "upset ⇔ illegal (Lemma 3.2) holds in"
    (Fmt.str "%d / %d" !consistent !histories);
  (* Random sweep for larger n, also checking Theorem 3.5(a). *)
  let prng = Prng.create 4242 in
  let trials = 20_000 and violations = ref 0 in
  for _ = 1 to trials do
    let n = 2 + Prng.int prng 4 in
    let pac = Pac.spec ~n () in
    let len = Prng.int prng 20 in
    let ops =
      List.init len (fun _ ->
          let i = 1 + Prng.int prng n in
          if Prng.bool prng then Pac.propose (Value.int (Prng.int prng 3)) i
          else Pac.decide i)
    in
    let h, st = Shistory.run pac ops in
    let decided =
      List.filter_map
        (fun (e : Shistory.event) ->
          if e.op.Op.name = "decide" && not (Value.is_bot e.response) then
            Some e.response
          else None)
        h
    in
    if
      Pac.is_upset st <> not (Pac.history_legal ~n h)
      || List.length (Listx.sort_uniq Value.compare decided) > 1
    then incr violations
  done;
  cell
    (Fmt.str "random histories (n ≤ 5, %d trials): violations" trials)
    (string_of_int !violations)

(* ---------------------------------------------------------------------- *)
(* T2: Theorem 4.1 — Algorithm 2 solves n-DAC.                            *)

let table_t2 () =
  hr "T2  Theorem 4.1: Algorithm 2 solves the n-DAC problem";
  List.iter
    (fun n ->
      let machine = Dac_from_pac.machine ~n in
      let specs = Dac_from_pac.specs ~n in
      let states = ref 0 in
      let v =
        Solvability.for_all_inputs
          (fun inputs ->
            let v = Solvability.check_dac ~machine ~specs ~inputs () in
            states := max !states v.Solvability.states;
            v)
          (Dac.binary_inputs n)
      in
      cell
        (Fmt.str "n = %d: exhaustive (all schedules, %d input vectors)" n
           (1 lsl n))
        (Fmt.str "%s, ≤ %d states"
           (if v.Solvability.ok then "solves n-DAC" else "FAILED")
           !states))
    [ 2; 3; 4; 5 ];
  (* Randomized sweep for larger n. *)
  List.iter
    (fun n ->
      let machine = Dac_from_pac.machine ~n in
      let specs = Dac_from_pac.specs ~n in
      let prng = Prng.create (n * 99) in
      let trials = 1000 and bad = ref 0 in
      for seed = 1 to trials do
        let inputs = Array.init n (fun _ -> Value.int (Prng.int prng 2)) in
        let r =
          Executor.run ~machine ~specs ~inputs
            ~scheduler:(Scheduler.random ~seed) ()
        in
        match
          Dac.check_safety ~inputs ~trace:r.Executor.trace r.Executor.final
        with
        | Ok () -> ()
        | Error _ -> incr bad
      done;
      cell
        (Fmt.str "n = %d: %d random schedules" n trials)
        (Fmt.str "%d violations" !bad))
    [ 6; 8 ]

(* ---------------------------------------------------------------------- *)
(* T3: Theorem 4.2 evidence — 3-DAC candidates over {2-cons, reg, 2-SA}. *)

let table_t3 () =
  hr
    "T3  Theorem 4.2 evidence: natural 3-DAC candidates over 2-consensus + \
     registers + 2-SA all fail";
  List.iter
    (fun (label, (machine, specs)) ->
      let v =
        Solvability.for_all_inputs
          (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
          (Dac.binary_inputs 3)
      in
      cell label (verdict_cell v ~expect_ok:false);
      match v.Solvability.failure with
      | Some f -> Fmt.pr "|   counterexample: %-72s|@." f
      | None -> ())
    [
      ("2-SA funnel then 2-consensus", Candidates.dac3_sa2_then_cons2);
      ("2-consensus race + announce register", Candidates.dac3_cons2_announce);
    ];
  (* The positive contrast: a 3-PAC object does solve it (Thm 4.1). *)
  let machine = Dac_from_pac.machine ~n:3 in
  let specs = Dac_from_pac.specs ~n:3 in
  let v =
    Solvability.for_all_inputs
      (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
      (Dac.binary_inputs 3)
  in
  cell "contrast: one 3-PAC object (Theorem 4.1)" (verdict_cell v ~expect_ok:true)

(* ---------------------------------------------------------------------- *)
(* T4: Theorem 5.3 — (n,m)-PAC is at level m.                             *)

let table_t4 () =
  hr "T4  Theorem 5.3: (n,m)-PAC objects sit at level m of the hierarchy";
  List.iter
    (fun (n, m) ->
      let r = Level.pac_nm_report ~n ~m () in
      let pos =
        match r.Level.solves_at_level with
        | Level.Verified v -> verdict_cell v ~expect_ok:true
        | _ -> "POSITIVE HALF FAILED"
      in
      cell (Fmt.str "(%d,%d)-PAC solves %d-consensus" n m m) pos;
      let neg =
        match r.Level.fails_above with
        | Level.Candidate_failed (_, v) -> verdict_cell v ~expect_ok:false
        | _ -> "?"
      in
      cell (Fmt.str "(%d,%d)-PAC: (m+1)-consensus candidate" n m) neg)
    [ (2, 2); (3, 2); (4, 3) ];
  (* Criticality structure (Claims 5.2.2/5.2.3) on the 2-consensus
     protocol. *)
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  let criticals = Bivalency.report_critical ~machine ~specs graph a in
  let all_common =
    List.for_all
      (fun (r : Bivalency.critical_report) -> r.Bivalency.common_object <> None)
      criticals
  in
  cell "critical configs, all poised on one object (Claim 5.2.3)"
    (Fmt.str "%d critical, common object: %b" (List.length criticals) all_common)

(* ---------------------------------------------------------------------- *)
(* T5: implementations (Obs 5.1, Lemma 6.4, snapshot substrate).          *)

let table_t5 () =
  hr "T5  Implementations are linearizable (Obs 5.1, Lemma 6.4, snapshots)";
  (let impl = Pac_nm_impl.implementation ~n:2 ~m:2 in
   let workloads =
     [|
       [ Pac_nm.propose_p (Value.int 1) 1; Pac_nm.decide_p 1 ];
       [ Pac_nm.propose_c (Value.int 9) ];
       [ Pac_nm.propose_c (Value.int 8) ];
     |]
   in
   match Harness.exhaustive ~impl ~workloads () with
   | Ok c ->
     cell "(2,2)-PAC from 2-PAC + 2-consensus (Obs 5.1a)"
       (Fmt.str "linearizable in all %d interleavings" c)
   | Error _ -> cell "(2,2)-PAC from 2-PAC + 2-consensus (Obs 5.1a)" "VIOLATED");
  (let power = O_prime.default_power ~n:2 ~max_k:2 in
   let impl = Oprime_impl.implementation ~power in
   let workloads =
     [|
       [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 10) 2 ];
       [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 20) 2 ];
     |]
   in
   match Harness.exhaustive ~impl ~workloads () with
   | Ok c ->
     cell "O'_2 from 2-consensus + 2-SA (Lemma 6.4)"
       (Fmt.str "linearizable in all %d interleavings" c)
   | Error _ -> cell "O'_2 from 2-consensus + 2-SA (Lemma 6.4)" "VIOLATED");
  (let impl = Oprime_impl.for_n ~n:2 ~max_k:4 in
   let workloads =
     [|
       [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 11) 2;
         O_prime.propose (Value.int 12) 3 ];
       [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 21) 3;
         O_prime.propose (Value.int 22) 4 ];
       [ O_prime.propose (Value.int 31) 2; O_prime.propose (Value.int 32) 4 ];
     |]
   in
   match Harness.campaign ~seed:5 ~trials:500 ~impl ~workloads () with
   | Ok t ->
     cell "O'_2 (K = 4), randomized campaign" (Fmt.str "%d/%d trials ok" t t)
   | Error (i, _) ->
     cell "O'_2 (K = 4), randomized campaign" (Fmt.str "trial %d FAILED" i));
  (let impl = Snapshot_impl.implementation ~n:3 in
   let workloads =
     Array.init 3 (fun pid ->
         [ Classic.Snapshot.update pid (Value.int (pid + 1));
           Classic.Snapshot.scan ])
   in
   match Harness.campaign ~seed:7 ~trials:300 ~impl ~workloads () with
   | Ok t ->
     cell "3-snapshot from registers (Afek et al.)"
       (Fmt.str "%d/%d trials ok" t t)
   | Error (i, _) ->
     cell "3-snapshot from registers (Afek et al.)"
       (Fmt.str "trial %d FAILED" i));
  let impl = Snapshot_impl.naive ~n:3 in
  let workloads =
    [|
      [ Classic.Snapshot.scan ];
      [ Classic.Snapshot.update 1 (Value.int 7) ];
      [ Classic.Snapshot.update 2 (Value.int 8) ];
    |]
  in
  match Harness.exhaustive ~max_steps:60 ~impl ~workloads () with
  | Ok _ -> cell "negative control: naive single-collect scan" "NOT refuted (!)"
  | Error _ ->
    cell "negative control: naive single-collect scan"
      "refuted by the checker (as predicted)"

(* ---------------------------------------------------------------------- *)
(* T6: set agreement power matrix + the separation.                       *)

let table_t6 () =
  hr
    "T6  Set agreement power (lower-bound rows machine-checked) and the \
     Corollary 6.6 separation";
  Fmt.pr "| %-14s | %-26s | %-36s |@." "object" "closed form / lower bound"
    "checked rows (k: procs, result)";
  let row name form probes =
    Fmt.pr "| %-14s | %-26s | %-36s |@." name form
      (String.concat "; "
         (List.map
            (fun (p : Power.probe) ->
              Fmt.str "k=%d: %d procs %s" p.Power.k p.Power.procs
                (if p.Power.solvable then "ok" else "FAIL"))
            probes))
  in
  row "2-consensus" "(2, 4, 6, ...)"
    [ Power.probe_consensus_family ~m:2 ~k:1 ();
      Power.probe_consensus_family ~m:2 ~k:2 () ];
  row "3-consensus" "(3, 6, 9, ...)"
    [ Power.probe_consensus_family ~m:3 ~k:1 () ];
  row "2-SA" "(1, ∞, ∞, ...)"
    [ Power.probe_sa2_family ~k:2 ~procs:4 ();
      Power.probe_sa2_family ~k:3 ~procs:5 () ];
  row "O_2" "(2, ≥4, ≥6, ...)" [ Power.probe_o_n_consensus ~n:2 () ];
  row "O'_2" "(2, 4, 6) by constr."
    [
      Power.probe_oprime_family
        ~power:(O_prime.default_power ~n:2 ~max_k:2)
        ~k:1 ();
      Power.probe_oprime_family
        ~power:(O_prime.default_power ~n:2 ~max_k:2)
        ~k:2 ();
    ];
  Fmt.pr "@.Separation artifacts (Corollary 6.6):@.";
  List.iter
    (fun (n, max_k) ->
      let report = Separation.analyze ~max_k ~n () in
      cell
        (Fmt.str "n = %d (power prefix length %d): artifacts" n max_k)
        (Fmt.str "%d checks, all as predicted: %b"
           (List.length report.Separation.artifacts)
           (Separation.all_ok report)))
    [ (2, 3); (3, 2); (4, 2) ]

(* ---------------------------------------------------------------------- *)
(* T7: the FLP baseline.                                                  *)

let table_t7 () =
  hr
    "T7  FLP baseline: register-only candidates, and the adversary over a \
     bare PAC";
  (let machine, specs = Candidates.flp_write_read in
   let v =
     Solvability.check_consensus ~machine ~specs
       ~inputs:[| Value.int 0; Value.int 1 |] ()
   in
   cell "write-read candidate (terminating)" (verdict_cell v ~expect_ok:false));
  (let machine, specs = Candidates.flp_spin in
   let v =
     Solvability.check_consensus ~machine ~specs
       ~inputs:[| Value.int 0; Value.int 1 |] ()
   in
   cell "spin candidate (safe, not wait-free)" (verdict_cell v ~expect_ok:false));
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  let maintainable =
    match Bivalency.bivalence_maintainable a graph with
    | Ok () -> true
    | Error _ -> false
  in
  cell "bare 2-PAC: initial bivalent, bivalence maintainable"
    (Fmt.str "%b, %b (adversary wins forever)"
       (Valence.is_bivalent a graph.Cgraph.initial)
       maintainable);
  (* The classic escape: obstruction-free consensus from registers. *)
  (let n = 2 in
   let machine = Obstruction_free.machine ~n ~max_rounds:50 in
   let specs = Obstruction_free.specs ~n ~max_rounds:50 in
   let inputs = [| Value.int 0; Value.int 1 |] in
   let graph = Cgraph.build ~max_states:20_000 ~machine ~specs ~inputs () in
   let first_bad =
     Cgraph.find_node graph (fun _ config ->
         Result.is_error (Consensus_task.check_safety ~inputs config))
   in
   let lockstep_livelocks =
     match
       Executor.run ~max_steps:10_000
         ~machine:(Obstruction_free.machine ~n ~max_rounds:6)
         ~specs:(Obstruction_free.specs ~n ~max_rounds:6)
         ~inputs ~scheduler:(Scheduler.round_robin ~n) ()
     with
     | exception Obstruction_free.Out_of_rounds _ -> true
     | _ -> false
   in
   cell "obstruction-free consensus (registers, commit-adopt)"
     (Fmt.str "safe at %d states (first violation: %s); lockstep livelocks: %b"
        (Cgraph.n_nodes graph)
        (match first_bad with None -> "none" | Some id -> string_of_int id)
        lockstep_livelocks))

(* ---------------------------------------------------------------------- *)
(* T8: the surrounding classics — Herlihy's universal construction and
   Borowsky-Gafni safe agreement.                                         *)

let table_t8 () =
  hr
    "T8  Surrounding classics: Herlihy's universal construction and \
     Borowsky-Gafni safe agreement";
  (* Universal construction hosts three very different targets. *)
  List.iter
    (fun (label, target, workloads) ->
      let n = Array.length workloads in
      let impl = Universal.implementation ~n ~target () in
      match Harness.campaign ~seed:1 ~trials:300 ~impl ~workloads () with
      | Ok t ->
        cell
          (Fmt.str "universal: %s among %d, from %d-consensus + regs" label n n)
          (Fmt.str "%d/%d trials linearizable" t t)
      | Error (i, _) ->
        cell (Fmt.str "universal: %s" label) (Fmt.str "trial %d FAILED" i))
    [
      ( "queue",
        Classic.Queue_obj.spec (),
        [|
          [ Classic.Queue_obj.enqueue (Value.int 1); Classic.Queue_obj.dequeue ];
          [ Classic.Queue_obj.enqueue (Value.int 2) ];
          [ Classic.Queue_obj.dequeue ];
        |] );
      ( "fetch-and-add",
        Classic.Fetch_and_add.spec (),
        Array.init 3 (fun _ ->
            List.init 2 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1)) );
      ( "3-PAC",
        Pac.spec ~n:3 (),
        Array.init 3 (fun pid ->
            [ Pac.propose (Value.int pid) (pid + 1); Pac.decide (pid + 1) ]) );
    ];
  (let impl =
     Universal.implementation ~n:2 ~target:(Classic.Fetch_and_add.spec ()) ()
   in
   let workloads =
     [| [ Classic.Fetch_and_add.fetch_and_add 1 ];
        [ Classic.Fetch_and_add.fetch_and_add 10 ] |]
   in
   match Harness.exhaustive ~max_steps:100 ~impl ~workloads () with
   | Ok c ->
     cell "universal: FAA among 2, exhaustive"
       (Fmt.str "all %d interleavings linearizable" c)
   | Error _ -> cell "universal: FAA among 2, exhaustive" "VIOLATED");
  (* Classic level-2 / level-∞ constructions, exhaustively. *)
  List.iter
    (fun (procs, (machine, specs)) ->
      let v =
        Solvability.for_all_inputs
          (fun inputs ->
            Solvability.check_consensus ~machine ~specs ~inputs ())
          (Consensus_task.binary_inputs procs)
      in
      cell
        (Fmt.str "%s among %d" machine.Machine.name procs)
        (verdict_cell v ~expect_ok:true))
    [
      (2, Consensus_protocols.from_queue ());
      (2, Consensus_protocols.from_fetch_and_add ());
      (2, Consensus_protocols.from_swap ());
      (3, Consensus_protocols.from_compare_and_swap ());
    ];
  (* Safe agreement. *)
  List.iter
    (fun n ->
      let machine = Safe_agreement.machine ~n in
      let specs = Safe_agreement.specs ~n in
      let inputs = Kset_task.distinct_inputs n in
      let graph = Cgraph.build ~machine ~specs ~inputs () in
      let first_bad =
        Cgraph.find_node graph (fun _ config ->
            Result.is_error (Consensus_task.check_safety ~inputs config))
      in
      cell
        (Fmt.str "safe agreement n=%d: safety at every configuration" n)
        (Fmt.str "first violation: %s in %d states"
           (match first_bad with None -> "none" | Some id -> string_of_int id)
           (Cgraph.n_nodes graph)))
    [ 2; 3 ];
  (let n = 2 in
   let machine = Safe_agreement.machine ~n in
   let specs = Safe_agreement.specs ~n in
   let inputs = Kset_task.distinct_inputs n in
   let r =
     Executor.run ~machine ~specs ~inputs ~scheduler:(Scheduler.fixed [ 0 ]) ()
   in
   let r2 = Executor.run_solo ~max_steps:500 ~machine ~specs r.Executor.final 1 in
   cell "safe agreement: crash in unsafe zone blocks the rival"
     (Fmt.str "rival spins (%s)"
        (match r2.Executor.stop with
        | Executor.Step_limit -> "as predicted"
        | _ -> "MISMATCH")))

(* ---------------------------------------------------------------------- *)
(* T9: Theorem 7.1 (Qadri's question).                                     *)

let table_t9 () =
  hr
    "T9  Theorem 7.1: (n+1,m)-PAC is at level m but out of reach of \
     n-consensus + registers";
  List.iter
    (fun (m, n) ->
      let report = Qadri.analyze ~m ~n () in
      List.iter
        (fun (a : Separation.verdictish) ->
          cell
            (Fmt.str "m=%d n=%d: %s" m n a.Separation.label)
            (Fmt.str "[%s] %s"
               (if a.Separation.ok then "ok" else "FAIL")
               a.Separation.detail))
        report.Qadri.artifacts)
    [ (2, 3) ]

(* ---------------------------------------------------------------------- *)
(* T10: the BG simulation.                                                 *)

let table_t10 () =
  hr
    "T10 BG simulation: fewer simulators faithfully run a larger \
     full-information snapshot protocol";
  let p = Sim_protocol.min_seen ~n_sim:3 ~steps:1 in
  let inputs = [| Value.int 10; Value.int 11; Value.int 12 |] in
  let outcomes = Sim_protocol.direct_outcomes p ~inputs in
  cell "direct 3-process outcome vectors (model-checked)"
    (string_of_int (List.length outcomes));
  let trials = 500 in
  let ok = ref 0 and agree = ref 0 and comparable = ref 0 in
  for seed = 1 to trials do
    let r =
      Bg_simulation.run ~p ~sim_inputs:inputs ~simulators:2
        ~scheduler:(Scheduler.random ~seed) ()
    in
    (match r.Bg_simulation.simulated_decisions with
    | Some ds when List.exists (Value.equal (Value.list ds)) outcomes ->
      incr ok
    | _ -> ());
    if Bg_simulation.simulators_agree r then incr agree;
    if Bg_simulation.views_comparable r.Bg_simulation.all_views then
      incr comparable
  done;
  cell
    (Fmt.str "2 simulators, %d random schedules: genuine outcomes" trials)
    (Fmt.str "%d/%d" !ok trials);
  cell "simulators agree on all views" (Fmt.str "%d/%d" !agree trials);
  cell "agreed views cell-wise comparable" (Fmt.str "%d/%d" !comparable trials);
  (* Exhaustive upgrade for the tiniest instances: EVERY simulator
     interleaving. *)
  List.iter
    (fun (n_sim, simulators) ->
      let p = Sim_protocol.min_seen ~n_sim ~steps:1 in
      let sim_inputs = Array.init n_sim (fun j -> Value.int (10 + j)) in
      let r = Bg_simulation.check_exhaustive ~p ~sim_inputs ~simulators () in
      cell
        (Fmt.str "exhaustive: %d sims / %d procs, all interleavings" simulators
           n_sim)
        (Fmt.str "%d states, %d terminals, %d bad" r.Bg_simulation.states
           r.Bg_simulation.terminals r.Bg_simulation.bad_outcomes))
    [ (2, 2); (3, 2) ];
  (* Crash sweep: at most one simulated process blocked, ever. *)
  let worst = ref 0 and runs = ref 0 in
  List.iter
    (fun budget ->
      incr runs;
      let scheduler =
        Lbsa_runtime.Fault.apply [ (0, budget) ] (Scheduler.round_robin ~n:2)
      in
      let r =
        Bg_simulation.run ~max_steps:5_000 ~p ~sim_inputs:inputs ~simulators:2
          ~scheduler ()
      in
      match r.Bg_simulation.simulated_decisions with
      | Some _ -> ()
      | None ->
        let progress = r.Bg_simulation.per_simulator_progress.(1) in
        let blocked =
          Listx.count
            (fun j ->
              match List.assoc_opt j progress with
              | Some c -> c < p.Sim_protocol.steps
              | None -> true)
            (Listx.range 0 2)
        in
        if blocked > !worst then worst := blocked)
    (Listx.range 0 20);
  cell
    (Fmt.str "crash sweep (%d budgets): max simulated processes blocked" !runs)
    (Fmt.str "%d (theorem: ≤ 1)" !worst)

let all_tables () =
  Fmt.pr
    "Life Beyond Set Agreement — experiment tables (T1-T10 of DESIGN.md).@.\
     The paper is pure theory with no empirical tables; these are the@.\
     mechanized-verification tables defined in its place.@.";
  table_t1 ();
  table_t2 ();
  table_t3 ();
  table_t4 ();
  table_t5 ();
  table_t6 ();
  table_t7 ();
  table_t8 ();
  table_t9 ();
  table_t10 ()

(* ---------------------------------------------------------------------- *)
(* Micro-benchmarks (bechamel).                                           *)

open Bechamel
open Toolkit

let micro_tests () =
  let pac3 = Pac.spec ~n:3 () in
  let cons8 = Consensus_obj.spec ~m:8 () in
  let sa2 = Sa2.spec () in
  let reg = Register.spec () in
  let prng = Prng.create 1 in
  let b1 =
    [
      Test.make ~name:"pac3 propose+decide pair"
        (Staged.stage (fun () ->
             let st, _ =
               Obj_spec.apply_det pac3 pac3.Obj_spec.initial
                 (Pac.propose (Value.int 1) 1)
             in
             ignore (Obj_spec.apply_det pac3 st (Pac.decide 1))));
      Test.make ~name:"8-consensus propose"
        (Staged.stage (fun () ->
             ignore
               (Obj_spec.apply_det cons8 cons8.Obj_spec.initial
                  (Consensus_obj.propose (Value.int 1)))));
      Test.make ~name:"2-SA propose (random adversary)"
        (Staged.stage (fun () ->
             ignore
               (Obj_spec.apply
                  ~choice:(fun bs -> Prng.int prng (List.length bs))
                  sa2 sa2.Obj_spec.initial
                  (Sa2.propose (Value.int 1)))));
      Test.make ~name:"register write+read"
        (Staged.stage (fun () ->
             let st, _ =
               Obj_spec.apply_det reg reg.Obj_spec.initial
                 (Register.write (Value.int 1))
             in
             ignore (Obj_spec.apply_det reg st Register.read)));
    ]
  in
  let b2 =
    List.map
      (fun n ->
        let machine = Dac_from_pac.machine ~n in
        let specs = Dac_from_pac.specs ~n in
        let counter = ref 0 in
        Test.make ~name:(Fmt.str "algorithm-2 end-to-end n=%d" n)
          (Staged.stage (fun () ->
               incr counter;
               let inputs = Array.init n (fun i -> Value.int (i land 1)) in
               ignore
                 (Executor.run ~machine ~specs ~inputs
                    ~scheduler:(Scheduler.random ~seed:!counter)
                    ()))))
      [ 2; 4; 8 ]
  in
  let b3 =
    let machine = Dac_from_pac.machine ~n:3 in
    let specs = Dac_from_pac.specs ~n:3 in
    let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
    [
      Test.make ~name:"graph build (3-DAC)"
        (Staged.stage (fun () ->
             ignore (Cgraph.build ~machine ~specs ~inputs ())));
      (let graph = Cgraph.build ~machine ~specs ~inputs () in
       Test.make ~name:"valence analysis (3-DAC graph)"
         (Staged.stage (fun () -> ignore (Valence.analyze graph))));
      (let graph = Cgraph.build ~machine ~specs ~inputs () in
       Test.make ~name:"valence fixpoint oracle (3-DAC graph)"
         (Staged.stage (fun () -> ignore (Valence.analyze_fixpoint graph))));
    ]
  in
  let b4 =
    let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
    [
      Test.make ~name:"solvability: consensus m=2 exhaustive"
        (Staged.stage (fun () ->
             ignore
               (Solvability.check_consensus ~machine ~specs
                  ~inputs:[| Value.int 0; Value.int 1 |] ())));
    ]
  in
  let b5 =
    let spec = Classic.Fetch_and_add.spec () in
    let gen_prng = Prng.create 99 in
    let workloads =
      Array.init 3 (fun _ ->
          List.init 3 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1))
    in
    let history =
      Lin_gen.linearizable_history ~prng:gen_prng ~spec ~workloads
    in
    [
      Test.make ~name:"linearizability check (9 calls, 3 procs)"
        (Staged.stage (fun () -> ignore (Lin_checker.check spec history)));
      (let session = Lin_checker.session spec in
       Test.make ~name:"lin check, reused session (9 calls, 3 procs)"
         (Staged.stage (fun () ->
              ignore (Lin_checker.check_with session history))));
      Test.make ~name:"ablation: lin check without memoization"
        (Staged.stage (fun () ->
             ignore (Lin_checker.check ~memo:false spec history)));
    ]
  in
  let b6 =
    [
      (let target = Classic.Fetch_and_add.spec () in
       let impl = Universal.implementation ~n:2 ~target () in
       let workloads =
         Array.init 2 (fun _ ->
             List.init 2 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1))
       in
       let counter = ref 0 in
       Test.make ~name:"universal FAA op (2 procs, end-to-end run)"
         (Staged.stage (fun () ->
              incr counter;
              ignore
                (Harness.run_clients ~impl ~workloads
                   ~scheduler:(Scheduler.random ~seed:!counter)
                   ()))));
      Test.make ~name:"power probe: O'_2 k=1"
        (Staged.stage (fun () ->
             ignore
               (Power.probe_oprime_family
                  ~power:(O_prime.default_power ~n:2 ~max_k:1)
                  ~k:1 ())));
    ]
  in
  Test.make_grouped ~name:"lbsa" (b1 @ b2 @ b3 @ b4 @ b5 @ b6)

let run_micro () =
  hr "Micro-benchmarks (bechamel; OLS estimate of time per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Fmt.pr "%-48s %16s %10s@." "benchmark" "time/op" "r²";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
      let time =
        if est > 1e9 then Fmt.str "%.3f s" (est /. 1e9)
        else if est > 1e6 then Fmt.str "%.3f ms" (est /. 1e6)
        else if est > 1e3 then Fmt.str "%.3f us" (est /. 1e3)
        else Fmt.str "%.1f ns" est
      in
      Fmt.pr "%-48s %16s %10.4f@." name time r2)
    rows

(* ---------------------------------------------------------------------- *)
(* Exploration micro-benchmark: the seed Map.Make(Config) explorer
   (Cgraph.build_cmap) against the hash-set/CSR engine (Cgraph.build),
   sequentially and with the default domain count.  Both must produce
   the identical graph; states/sec comes from each graph's own stats. *)

let run_explore () =
  hr "Exploration engines (states/sec; same graph from every engine)";
  let cases =
    [
      ( "3-process consensus (m=3)",
        (fun () -> Consensus_protocols.from_consensus_obj ~m:3),
        [| Value.int 0; Value.int 1; Value.int 0 |],
        3000 );
      ( "5-process DAC (Algorithm 2)",
        (fun () -> (Dac_from_pac.machine ~n:5, Dac_from_pac.specs ~n:5)),
        [| Value.int 1; Value.int 0; Value.int 0; Value.int 0; Value.int 0 |],
        10 );
      ( "6-process DAC (Algorithm 2)",
        (fun () -> (Dac_from_pac.machine ~n:6, Dac_from_pac.specs ~n:6)),
        Array.init 6 (fun pid -> Value.int (if pid = 0 then 1 else 0)),
        3 );
    ]
  in
  Fmt.pr "%-30s %8s %14s %14s %14s %9s@." "graph" "states" "cmap st/s"
    "hash st/s" "hash-par st/s" "speedup";
  List.iter
    (fun (label, mk, inputs, reps) ->
      let machine, specs = mk () in
      let time build =
        (* Fresh compacted heap per engine (a retained graph from one
           engine would tax the next engine's GC), warm once, then sum
           the explorer's own wall clock over reps. *)
        Gc.compact ();
        let g = build () in
        let shape = (Cgraph.n_nodes g, Cgraph.n_edges g) in
        let wall = ref 0. in
        for _ = 1 to reps do
          let g = build () in
          wall := !wall +. (Cgraph.stats g).Cgraph.wall_s
        done;
        (shape, float (fst shape) *. float reps /. !wall)
      in
      let s0, cmap_rate =
        time (fun () -> Cgraph.build_cmap ~machine ~specs ~inputs ())
      in
      let s1, seq_rate =
        time (fun () -> Cgraph.build ~domains:1 ~machine ~specs ~inputs ())
      in
      let s2, par_rate = time (fun () -> Cgraph.build ~machine ~specs ~inputs ()) in
      assert (s0 = s1);
      assert (s0 = s2);
      Fmt.pr "%-30s %8d %14.0f %14.0f %14.0f %8.1fx@." label (fst s0) cmap_rate
        seq_rate par_rate
        (Float.max seq_rate par_rate /. cmap_rate))
    cases

(* ---------------------------------------------------------------------- *)
(* BENCH_verify.json: fixed-workload verification-pipeline measurements,
   written as machine-readable JSON so the perf trajectory has data
   points (schema documented in DESIGN.md).  Fixed seeds and short
   budgets — usable as a CI smoke. *)

(* The seed's checker, kept verbatim as the baseline for the checker
   measurement: per-check Hashtbl-and-sort well-formedness test,
   functional Value sets threaded through the DFS, and a structural
   (int * Value.t list) memo key. *)
module Seed_shape_checker = struct
  module VSet = Set.Make (Value)

  let well_formed (h : Chistory.t) =
    let by_pid = Hashtbl.create 8 in
    List.iter
      (fun (c : Chistory.call) ->
        let cur = Option.value (Hashtbl.find_opt by_pid c.pid) ~default:[] in
        Hashtbl.replace by_pid c.pid (c :: cur))
      h;
    Hashtbl.fold
      (fun _ calls acc ->
        acc
        &&
        let sorted =
          List.sort
            (fun (a : Chistory.call) (b : Chistory.call) ->
              Stdlib.compare a.inv b.inv)
            calls
        in
        let rec ok = function
          | (a : Chistory.call) :: (b :: _ as rest) ->
            a.res < b.inv && ok rest
          | _ -> true
        in
        ok sorted)
      by_pid true

  let check (spec : Obj_spec.t) (h : Chistory.t) =
    if not (well_formed h) then
      invalid_arg "Checker.check: history is not well-formed";
    let calls = Array.of_list h in
    let nc = Array.length calls in
    let pred_mask =
      Array.init nc (fun i ->
          let m = ref 0 in
          for j = 0 to nc - 1 do
            if j <> i && Chistory.precedes calls.(j) calls.(i) then
              m := !m lor (1 lsl j)
          done;
          !m)
    in
    let full = (1 lsl nc) - 1 in
    let visited : (int * Value.t list, unit) Hashtbl.t = Hashtbl.create 256 in
    let exception Found of Chistory.call list in
    let apply_call states (c : Chistory.call) =
      VSet.fold
        (fun s acc ->
          List.fold_left
            (fun acc (b : Obj_spec.branch) ->
              if Value.equal b.response c.response then VSet.add b.next acc
              else acc)
            acc
            (Obj_spec.branches spec s c.op))
        states VSet.empty
    in
    let rec go done_mask states acc =
      if done_mask = full then raise (Found (List.rev acc))
      else
        let key = (done_mask, VSet.elements states) in
        if Hashtbl.mem visited key then ()
        else begin
          for i = 0 to nc - 1 do
            let bit = 1 lsl i in
            if done_mask land bit = 0 && pred_mask.(i) land lnot done_mask = 0
            then begin
              let states' = apply_call states calls.(i) in
              if not (VSet.is_empty states') then
                go (done_mask lor bit) states' (calls.(i) :: acc)
            end
          done;
          Hashtbl.replace visited key ()
        end
    in
    match go 0 (VSet.singleton spec.Obj_spec.initial) [] with
    | () -> None
    | exception Found order -> Some order
end

(* Mean seconds per call: warm once, then batches of 50 until >= 0.1 s
   of measurement; report the fastest of [k] such measurements (the
   steady-state figure, robust against frequency scaling and GC noise). *)
let time_per ?(k = 5) f =
  f ();
  let one () =
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < 0.1 do
      for _ = 1 to 50 do
        f ()
      done;
      reps := !reps + 50;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed /. float !reps
  in
  let best = ref (one ()) in
  for _ = 2 to k do
    let t = one () in
    if t < !best then best := t
  done;
  !best

(* Paired variant for A/B overhead comparisons: alternate short batches
   of the two functions so frequency scaling, cache state, and GC noise
   hit both sides equally, then report best-of-[k] for each.  Two
   independent [time_per] calls minutes apart can disagree by 30%+ on
   a shared box, which is fatal when the question is "is A within 5%
   of B". *)
let time_pair ?(k = 9) f g =
  f ();
  g ();
  let one h =
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < 0.02 do
      for _ = 1 to 500 do
        h ()
      done;
      reps := !reps + 500;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed /. float !reps
  in
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to k do
    let tf = one f in
    let tg = one g in
    if tf < !bf then bf := tf;
    if tg < !bg then bg := tg
  done;
  (!bf, !bg)

(* Out-of-core cases run through `lbsa explore` in a fresh subprocess,
   so the reported peak RSS (VmHWM) is honestly per-run — this process
   never inherits a child's high-water mark — and the key=value stdout
   parses with a string split. *)
let cli_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let explore_sub args =
  let cmd =
    String.concat " " (List.map Filename.quote (cli_exe :: "explore" :: args))
  in
  let ic = Unix.open_process_in cmd in
  let kv = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '=' with
       | Some i ->
         Hashtbl.replace kv (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  (* 0 = complete graph, 2 = partial (quota/deadline) — both carry
     telemetry worth recording; anything else is a harness bug. *)
  (match Unix.close_process_in ic with
  | Unix.WEXITED (0 | 2) -> ()
  | _ -> failwith ("bench: explore subprocess failed: " ^ cmd));
  kv

let kv_s kv k =
  match Hashtbl.find_opt kv k with
  | Some v -> v
  | None -> failwith ("bench: explore output missing key " ^ k)

let kv_i kv k = int_of_string (kv_s kv k)
let kv_f kv k = float_of_string (kv_s kv k)

let run_json () =
  hr "Verification pipeline measurements -> BENCH_verify.json";
  let machine = Dac_from_pac.machine ~n:3 in
  let specs = Dac_from_pac.specs ~n:3 in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  let graph = Cgraph.build ~machine ~specs ~inputs () in
  let gstats = Cgraph.stats graph in
  let nodes = Cgraph.n_nodes graph in
  (* Before/after for the explorer: the seed CMap explorer rebuilds the
     same graph through structural [Config.compare]; the current one
     dedups through cached hashes and pointer-equality [Value.equal]. *)
  let t_build =
    time_per ~k:3 (fun () ->
        ignore (Cgraph.build ~domains:1 ~machine ~specs ~inputs ()))
  in
  let t_cmap =
    time_per ~k:3 (fun () ->
        ignore (Cgraph.build_cmap ~machine ~specs ~inputs ()))
  in
  let t_val = time_per (fun () -> ignore (Valence.analyze graph)) in
  let t_fix = time_per (fun () -> ignore (Valence.analyze_fixpoint graph)) in
  let spec = Classic.Fetch_and_add.spec () in
  let workloads =
    Array.init 3 (fun _ ->
        List.init 3 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1))
  in
  let history =
    Lin_gen.linearizable_history ~prng:(Prng.create 99) ~spec ~workloads
  in
  let session = Lin_checker.session spec in
  let t_sess =
    time_per (fun () -> ignore (Lin_checker.check_with session history))
  in
  let t_fresh = time_per (fun () -> ignore (Lin_checker.check spec history)) in
  let t_seed =
    time_per (fun () -> ignore (Seed_shape_checker.check spec history))
  in
  let sweep d =
    let _, fs =
      Solvability.for_all_inputs_timed ~domains:d
        (fun inputs ->
          Solvability.check_dac ~domains:1 ~machine ~specs ~inputs ())
        (Dac.binary_inputs 3)
    in
    fs
  in
  (* Warm once so the first sweep doesn't pay one-time setup. *)
  ignore (sweep 1);
  let fs1 = sweep 1 and fs2 = sweep 2 and fs4 = sweep 4 in
  (* State-space reduction on the same instance: states and wall per
     mode, the verdict cross-checked against the unreduced run, and the
     reduced graph cross-checked against the CMap oracle. *)
  let canon = Canon.dac ~n:3 in
  let dac_frozen obj st = obj = 0 && Pac.is_upset st in
  let reductions =
    [
      ("none", Cgraph.no_reduction);
      ("sym", { Cgraph.rname = "sym"; canon; sleep = false; frozen = None });
      ( "sym+sleep",
        {
          Cgraph.rname = "sym+sleep";
          canon;
          sleep = true;
          frozen = Some dac_frozen;
        } );
    ]
  in
  let red =
    List.map
      (fun (mode, reduce) ->
        let g = Cgraph.build ~domains:1 ~reduce ~machine ~specs ~inputs () in
        let oracle = Cgraph.build_cmap ~reduce ~machine ~specs ~inputs () in
        let oracle_agrees =
          Cgraph.n_nodes g = Cgraph.n_nodes oracle
          && Cgraph.n_edges g = Cgraph.n_edges oracle
        in
        let v =
          Solvability.check_dac ~domains:1 ~reduce ~machine ~specs ~inputs ()
        in
        let t =
          time_per ~k:3 (fun () ->
              ignore (Cgraph.build ~domains:1 ~reduce ~machine ~specs ~inputs ()))
        in
        (mode, Cgraph.n_nodes g, t, v.Solvability.ok, oracle_agrees))
      reductions
  in
  let red_states mode =
    let _, s, _, _, _ = List.find (fun (m, _, _, _, _) -> m = mode) red in
    s
  in
  let red_ratio =
    float (red_states "none") /. float (max 1 (red_states "sym+sleep"))
  in
  let red_verdicts_agree =
    match red with
    | (_, _, _, ok0, _) :: _ ->
      List.for_all (fun (_, _, _, ok, agrees) -> ok = ok0 && agrees) red
    | [] -> false
  in
  (* Verification service: client-observed cold vs hot latency for the
     dac:3 solvability query under every reduction mode, plus the
     daemon's own counters.  One in-process daemon on a throwaway socket
     and store — the same path [lbsa serve] exercises. *)
  let serve_dir =
    let d = Filename.temp_file "lbsa-bench-serve" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let serve_cfg =
    {
      Serve_daemon.socket = Filename.concat serve_dir "sock";
      store_dir = Filename.concat serve_dir "store";
      workers = 1;
      default_deadline_s = None;
      store_probe_s = 5.;
      log = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve_daemon.run serve_cfg) in
  let client =
    match Serve_client.connect ~wait_s:10. ~socket:serve_cfg.socket () with
    | Ok c -> c
    | Error e -> failwith ("bench: cannot reach serve daemon: " ^ e)
  in
  let serve_query reduce =
    Serve_api.Verify
      {
        task = Serve_api.Dac { n = 3 };
        question = Serve_api.Solve;
        inputs = [ 1; 0; 0 ];
        max_states = Cgraph.default_max_states;
        reduce;
        substrate = "shm";
      }
  in
  let client_wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let serve_modes =
    List.map
      (fun reduce ->
        let q = serve_query reduce in
        let ask () =
          match Serve_client.query client q with
          | Ok (r, cached, _) -> (Serve_api.render r, cached)
          | Error e -> failwith ("bench: serve query failed: " ^ e)
        in
        let (cold_render, _), cold_ms = client_wall ask in
        let hot_ms = ref infinity and hot_equal = ref true in
        for _ = 1 to 10 do
          let (r, cached), ms = client_wall ask in
          if not cached then failwith "bench: warm serve query missed cache";
          if ms < !hot_ms then hot_ms := ms;
          hot_equal := !hot_equal && String.equal r cold_render
        done;
        (Serve_api.reduce_name reduce, cold_ms, !hot_ms, !hot_equal))
      [ `None; `Sym; `Sym_sleep ]
  in
  let serve_stats =
    match Serve_client.stats client with
    | Ok s -> s
    | Error e -> failwith ("bench: serve stats failed: " ^ e)
  in
  (match Serve_client.shutdown client with
  | Ok _ -> ()
  | Error e -> failwith ("bench: serve shutdown failed: " ^ e));
  Serve_client.close client;
  let (_ : Serve_wire.stats) = Domain.join daemon in
  let rec rm_rf path =
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path
  in
  (try rm_rf serve_dir with Sys_error _ | Unix.Unix_error _ -> ());
  (* Out-of-core explorer.  A resident and a spilled run on a mid-size
     obstruction-free case (of:3:2, ~105k states): both must end Done
     with the same structural fingerprint, the spilled run must
     actually write segments, and `explore` must remove its own spill
     directory once the graph completes.  The >= 1e7-state big case
     takes minutes of wall and gigabytes of spill, so it only runs when
     LBSA_BENCH_BIG=1; CI and quick local regens get "skipped": true. *)
  let ooc_dir =
    let d = Filename.temp_file "lbsa-bench-ooc" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let ooc_case = "of:3:2" in
  let ooc_resident = explore_sub [ ooc_case; "--fingerprint" ] in
  let ooc_spilled =
    explore_sub
      [
        ooc_case;
        "--spill-dir";
        Filename.concat ooc_dir "spill";
        "--spill-threshold";
        "20000";
        "--fingerprint";
      ]
  in
  let ooc_fingerprints_equal =
    String.equal
      (kv_s ooc_resident "fingerprint")
      (kv_s ooc_spilled "fingerprint")
  in
  let ooc_outcomes_done =
    kv_s ooc_resident "outcome" = "done" && kv_s ooc_spilled "outcome" = "done"
  in
  let ooc_spill_engaged = kv_i ooc_spilled "spill_segments" > 0 in
  let ooc_spill_cleaned =
    not (Sys.file_exists (Filename.concat ooc_dir "spill"))
  in
  (* The spilled explorer must agree with the seed CMap oracle
     node-for-node on dac:3, and its solvability verdict with the
     resident run from the reduction section above. *)
  let ooc_verdict =
    Solvability.check_dac ~domains:1
      ~spill:
        {
          Cgraph.spill_dir = Filename.concat ooc_dir "oracle-spill";
          spill_threshold = 40;
        }
      ~machine ~specs ~inputs ()
  in
  let ooc_verdict_ok =
    let _, _, _, ok_none, _ = List.find (fun (m, _, _, _, _) -> m = "none") red in
    ooc_verdict.Solvability.ok = ok_none
  in
  let ooc_oracle_agrees =
    let g =
      Cgraph.build ~domains:1
        ~spill:
          {
            Cgraph.spill_dir = Filename.concat ooc_dir "oracle-spill2";
            spill_threshold = 40;
          }
        ~machine ~specs ~inputs ()
    in
    let oracle = Cgraph.build_cmap ~machine ~specs ~inputs () in
    Cgraph.n_nodes g = Cgraph.n_nodes oracle
    && Cgraph.n_edges g = Cgraph.n_edges oracle
  in
  let ooc_big =
    match Sys.getenv_opt "LBSA_BENCH_BIG" with
    | Some "1" ->
      Some
        (explore_sub
           [
             "of:4:2";
             "--max-states";
             "40000000";
             "--spill-dir";
             Filename.concat ooc_dir "big-spill";
             "--spill-threshold";
             "2000000";
           ])
    | _ -> None
  in
  (try rm_rf ooc_dir with Sys_error _ | Unix.Unix_error _ -> ());
  let serve_speedup_min =
    List.fold_left
      (fun acc (_, cold, hot, _) -> Float.min acc (cold /. hot))
      infinity serve_modes
  in
  let serve_verdicts_equal =
    List.for_all (fun (_, _, _, eq) -> eq) serve_modes
  in
  (* Fairness-aware liveness on the message-passing substrate: safety
     (consensus solvability) vs liveness (fair-cycle search) on the SAME
     vc:2 task and graph, the live bcast:2 control, and the shrunk-lasso
     size.  Single-domain build + greedy shrink, so every number here is
     deterministic and CI can byte-compare the witness elsewhere. *)
  let mp = Substrate.mp () in
  let vc_machine = View_change.machine ~n:2 in
  let vc_specs = View_change.specs ~n:2 () in
  let vc_inputs = View_change.inputs ~n:2 in
  let vc_graph =
    Cgraph.build ~domains:1 ~substrate:mp ~machine:vc_machine ~specs:vc_specs
      ~inputs:vc_inputs ()
  in
  let t_vc_safety =
    time_per ~k:3 (fun () ->
        ignore
          (Solvability.check_consensus ~domains:1 ~substrate:mp
             ~machine:vc_machine ~specs:vc_specs ~inputs:vc_inputs ()))
  in
  let t_vc_live =
    time_per ~k:3 (fun () ->
        ignore
          (Liveness.analyze ~machine:vc_machine ~specs:vc_specs ~substrate:mp
             vc_graph))
  in
  let vc_report =
    Liveness.analyze ~machine:vc_machine ~specs:vc_specs ~substrate:mp vc_graph
  in
  let vc_livelock, lasso_prefix, lasso_cycle, lasso_valid =
    match vc_report.Liveness.verdict with
    | Liveness.Livelock w ->
      let w, _ =
        Lasso.shrink ~machine:vc_machine ~specs:vc_specs ~substrate:mp
          ~graph:vc_graph w
      in
      ( true,
        List.length w.Liveness.w_prefix,
        List.length w.Liveness.w_cycle,
        Liveness.validate ~machine:vc_machine ~specs:vc_specs ~substrate:mp
          vc_graph w )
    | Liveness.Live -> (false, 0, 0, false)
  in
  let bcast_live =
    let machine = View_change.bcast_machine ~n:2 in
    let specs = View_change.bcast_specs ~n:2 () in
    let inputs = View_change.inputs ~n:2 in
    let g =
      Cgraph.build ~domains:1 ~substrate:mp ~machine ~specs ~inputs ()
    in
    (Liveness.analyze ~machine ~specs ~substrate:mp g).Liveness.verdict
    = Liveness.Live
  in
  (* Parallel speedup is bounded by the cores actually available: on a
     single-core box the d > 1 sweeps only measure spawn overhead. *)
  let cores = Domain.recommended_domain_count () in
  let istats = Value.intern_stats () in
  let probe = gstats.Cgraph.probe in
  Fmt.pr "explore:  %d states at %.0f states/s (%d domains)@." nodes
    gstats.Cgraph.states_per_sec gstats.Cgraph.domains;
  Fmt.pr "explore:  %.2f ms/build vs %.2f ms seed CMap (%.2fx)@."
    (t_build *. 1e3) (t_cmap *. 1e3) (t_cmap /. t_build);
  Fmt.pr
    "hashcons: %d hits / %d misses (%d live values, %d stripes); dedup \
     probes %d, %d compares avoided on hash, %d equal-confirms@."
    istats.Value.hits istats.Value.misses istats.Value.size
    istats.Value.stripes probe.Ctbl.probes probe.Ctbl.hash_skips
    probe.Ctbl.equal_confirms;
  Fmt.pr "valence:  %.1f ns/node (fixpoint oracle %.1f ns/node, %.2fx)@."
    (t_val *. 1e9 /. float nodes)
    (t_fix *. 1e9 /. float nodes)
    (t_fix /. t_val);
  Fmt.pr
    "checker:  %.0f checks/s fresh, %.0f reused session (seed shape %.0f; \
     %.2fx / %.2fx)@."
    (1. /. t_fresh) (1. /. t_sess) (1. /. t_seed) (t_seed /. t_fresh)
    (t_seed /. t_sess);
  Fmt.pr
    "for_all_inputs (8 x dac:3): %.3fs @@1, %.3fs @@2, %.3fs @@4 domains (%d \
     core%s available)@."
    fs1.Solvability.wall_s fs2.Solvability.wall_s fs4.Solvability.wall_s cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun (mode, states, t, ok, agrees) ->
      Fmt.pr
        "reduce %-9s %4d states, %.2f ms/build, verdict %s, oracle %s@." mode
        states (t *. 1e3)
        (if ok then "ok" else "FAIL")
        (if agrees then "agrees" else "DISAGREES"))
    red;
  Fmt.pr "reduce ratio: %.2fx fewer states under sym+sleep@." red_ratio;
  List.iter
    (fun (mode, cold, hot, eq) ->
      Fmt.pr "serve %-9s cold %.2f ms, hot %.3f ms (%.0fx), verdict %s@." mode
        cold hot (cold /. hot)
        (if eq then "equal" else "DIFFERS"))
    serve_modes;
  Fmt.pr
    "serve counters: %d queries, %d mem hits, %d store hits, %d computed, \
     queue peak %d@."
    serve_stats.Serve_wire.st_queries serve_stats.Serve_wire.st_hits_mem
    serve_stats.Serve_wire.st_hits_store serve_stats.Serve_wire.st_computed
    serve_stats.Serve_wire.st_queue_peak;
  Fmt.pr "ooc %s resident: %.0f states/s, wall %.2f s, peak RSS %d kB@."
    ooc_case
    (kv_f ooc_resident "states_per_sec")
    (kv_f ooc_resident "wall_s")
    (kv_i ooc_resident "peak_rss_kb");
  Fmt.pr
    "ooc %s spilled: %d segments / %d bytes on disk, %d faults, peak RSS %d \
     kB; fingerprints %s, oracle %s@."
    ooc_case
    (kv_i ooc_spilled "spill_segments")
    (kv_i ooc_spilled "spill_bytes")
    (kv_i ooc_spilled "seg_faults")
    (kv_i ooc_spilled "peak_rss_kb")
    (if ooc_fingerprints_equal then "equal" else "DIFFER")
    (if ooc_oracle_agrees then "agrees" else "DISAGREES");
  (match ooc_big with
  | Some kv ->
    Fmt.pr
      "ooc big of:4:2: %d states, %.0f states/s, wall %.1f s, peak RSS %d \
       kB, %d spill bytes, outcome %s@."
      (kv_i kv "states") (kv_f kv "states_per_sec") (kv_f kv "wall_s")
      (kv_i kv "peak_rss_kb") (kv_i kv "spill_bytes") (kv_s kv "outcome")
  | None -> Fmt.pr "ooc big case skipped (set LBSA_BENCH_BIG=1 to run)@.");
  Fmt.pr
    "liveness vc:2 (mp): %d states, safety %.2f ms vs liveness %.2f ms; %d/%d \
     SCCs fair, %s, lasso %d+%d (%s), bcast:2 %s@."
    (Cgraph.n_nodes vc_graph) (t_vc_safety *. 1e3) (t_vc_live *. 1e3)
    vc_report.Liveness.fair_sccs vc_report.Liveness.sccs
    (if vc_livelock then "LIVELOCK" else "live")
    lasso_prefix lasso_cycle
    (if lasso_valid then "oracle agrees" else "ORACLE REJECTS")
    (if bcast_live then "live" else "LIVELOCK");
  (* Robustness (PR 10): crash-recovery latency of a real SIGKILLed
     child (killed after the rename crash point, so a complete
     checkpoint exists to resume), the rio shim's hot-path overhead
     over a bare write syscall, and a seeded fault sweep's
     injection/survival counters. *)
  let crash_dir =
    let d = Filename.temp_file "lbsa-bench-crash" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let solve_args = [ "solve"; "dac"; "-n"; "3" ] in
  let crash_ck = Filename.concat crash_dir "crash.ckpt" in
  let crash_baseline = Crashdrive.run ~exe:cli_exe ~args:solve_args () in
  let crashed =
    Crashdrive.run
      ~env:[ ("LBSA_IO_CRASH", "checkpoint.save:4") ]
      ~exe:cli_exe
      ~args:(solve_args @ [ "--deadline"; "0"; "--checkpoint"; crash_ck ])
      ()
  in
  let crash_killed = Crashdrive.killed_by crashed Sys.sigkill in
  let t0_recover = Unix.gettimeofday () in
  let resumed =
    Crashdrive.run ~exe:cli_exe ~args:(solve_args @ [ "--resume"; crash_ck ]) ()
  in
  let recovery_ms = (Unix.gettimeofday () -. t0_recover) *. 1e3 in
  let crash_recovered =
    crash_killed
    && Crashdrive.exited resumed = Some 0
    && String.equal resumed.Crashdrive.out crash_baseline.Crashdrive.out
  in
  (try rm_rf crash_dir with Sys_error _ | Unix.Unix_error _ -> ());
  let rio_buf = Bytes.make 4096 'x' in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t_rio_write, t_raw_write =
    time_pair
      (fun () -> Rio.really_write ~site:"bench.rio" devnull rio_buf 0 4096)
      (fun () -> ignore (Unix.write devnull rio_buf 0 4096))
  in
  Unix.close devnull;
  let rio_overhead_pct = (t_rio_write -. t_raw_write) /. t_raw_write *. 100. in
  let sweep_survived = ref 0
  and sweep_refused = ref 0
  and sweep_wrong = ref 0 in
  Rio.reset_counters ();
  Rio.arm ~seed:7 ~rate_percent:20 ();
  let sweep_dir =
    let d = Filename.temp_file "lbsa-bench-sweep" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let sweep_store = Serve_store.open_ ~dir:sweep_dir in
  for i = 0 to 199 do
    let key = Fmt.str "bench%04d00000000" i in
    let canonical = Fmt.str "bench question %d" i in
    let data = Fmt.str "bench answer %d" i in
    (match Serve_store.put sweep_store ~key ~canonical ~data with
    | Ok () -> ()
    | Error _ -> incr sweep_refused);
    match Serve_store.get sweep_store ~key ~canonical with
    | None -> ()
    | Some got ->
      if String.equal got data then incr sweep_survived else incr sweep_wrong
  done;
  Rio.disarm ();
  let rio_ctr = Rio.counters () in
  (try rm_rf sweep_dir with Sys_error _ | Unix.Unix_error _ -> ());
  Fmt.pr
    "robustness: crash recovery %s in %.1f ms; rio write %.0f ns vs raw %.0f \
     ns (%+.1f%%)@."
    (if crash_recovered then "byte-identical" else "FAILED")
    recovery_ms (t_rio_write *. 1e9) (t_raw_write *. 1e9) rio_overhead_pct;
  Fmt.pr
    "robustness sweep: %d served, %d refused, %d wrong; injected eintr=%d \
     short=%d enospc=%d eio=%d, %d retries absorbed@."
    !sweep_survived !sweep_refused !sweep_wrong rio_ctr.Rio.c_eintr
    (rio_ctr.Rio.c_short_read + rio_ctr.Rio.c_short_write)
    rio_ctr.Rio.c_enospc rio_ctr.Rio.c_eio rio_ctr.Rio.c_retries;
  let oc = open_out "BENCH_verify.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"lbsa-bench-verify/8\",\n";
  p
    "  \"explore\": { \"case\": \"dac:3\", \"states\": %d, \
     \"states_per_sec\": %.0f, \"domains\": %d, \"build_ms\": %.3f, \
     \"cmap_build_ms\": %.3f, \"speedup_vs_cmap\": %.2f },\n"
    nodes gstats.Cgraph.states_per_sec gstats.Cgraph.domains (t_build *. 1e3)
    (t_cmap *. 1e3) (t_cmap /. t_build);
  p
    "  \"hashcons\": { \"intern_hits\": %d, \"intern_misses\": %d, \
     \"table_size\": %d, \"stripes\": %d, \"dedup_probes\": %d, \
     \"probe_compares_avoided\": %d, \"probe_equal_confirms\": %d },\n"
    istats.Value.hits istats.Value.misses istats.Value.size
    istats.Value.stripes probe.Ctbl.probes probe.Ctbl.hash_skips
    probe.Ctbl.equal_confirms;
  p
    "  \"valence\": { \"graph\": \"dac:3\", \"nodes\": %d, \
     \"analyze_ns_per_node\": %.1f, \"fixpoint_ns_per_node\": %.1f, \
     \"speedup\": %.2f },\n"
    nodes
    (t_val *. 1e9 /. float nodes)
    (t_fix *. 1e9 /. float nodes)
    (t_fix /. t_val);
  p
    "  \"checker\": { \"case\": \"faa 9 calls 3 procs\", \
     \"fresh_checks_per_sec\": %.0f, \"session_checks_per_sec\": %.0f, \
     \"seed_shape_checks_per_sec\": %.0f, \"speedup_fresh_vs_seed\": %.2f, \
     \"speedup_session_vs_seed\": %.2f },\n"
    (1. /. t_fresh) (1. /. t_sess) (1. /. t_seed) (t_seed /. t_fresh)
    (t_seed /. t_sess);
  p "  \"reduction\": { \"case\": \"dac:3\", \"modes\": {\n";
  List.iteri
    (fun i (mode, states, t, ok, agrees) ->
      p
        "    %S: { \"states\": %d, \"build_ms\": %.3f, \"verdict_ok\": %b, \
         \"oracle_agrees\": %b }%s\n"
        mode states (t *. 1e3) ok agrees
        (if i = List.length red - 1 then "" else ","))
    red;
  p "  }, \"ratio_none_vs_sym_sleep\": %.2f, \"verdicts_agree\": %b },\n"
    red_ratio red_verdicts_agree;
  p
    "  \"for_all_inputs\": { \"family\": \"dac:3 binary inputs\", \
     \"vectors\": %d, \"cores_available\": %d, \"wall_s\": { \"1\": %.4f, \
     \"2\": %.4f, \"4\": %.4f }, \"speedup_4_domains\": %.2f },\n"
    fs1.Solvability.vectors cores fs1.Solvability.wall_s
    fs2.Solvability.wall_s fs4.Solvability.wall_s
    (fs1.Solvability.wall_s /. fs4.Solvability.wall_s);
  p "  \"serve\": { \"case\": \"dac:3 solve\", \"modes\": {\n";
  List.iteri
    (fun i (mode, cold, hot, eq) ->
      p
        "    %S: { \"cold_ms\": %.3f, \"hot_ms\": %.4f, \"speedup\": %.1f, \
         \"verdict_equal\": %b }%s\n"
        mode cold hot (cold /. hot) eq
        (if i = List.length serve_modes - 1 then "" else ","))
    serve_modes;
  p
    "  }, \"speedup_min\": %.1f, \"verdicts_equal\": %b, \"queries\": %d, \
     \"hits_mem\": %d, \"hits_store\": %d, \"misses\": %d, \"computed\": %d, \
     \"joined\": %d, \"queue_peak\": %d, \"corrupt\": %d, \
     \"hot_us_mean\": %.1f, \"cold_us_mean\": %.1f },\n"
    serve_speedup_min serve_verdicts_equal serve_stats.Serve_wire.st_queries
    serve_stats.Serve_wire.st_hits_mem serve_stats.Serve_wire.st_hits_store
    serve_stats.Serve_wire.st_misses serve_stats.Serve_wire.st_computed
    serve_stats.Serve_wire.st_joined serve_stats.Serve_wire.st_queue_peak
    serve_stats.Serve_wire.st_corrupt
    (serve_stats.Serve_wire.st_hot_us_total
    /. float (max 1 serve_stats.Serve_wire.st_hot_count))
    (serve_stats.Serve_wire.st_cold_us_total
    /. float (max 1 serve_stats.Serve_wire.st_cold_count));
  p
    "  \"liveness\": { \"case\": \"vc:2\", \"substrate\": \"mp\", \
     \"states\": %d, \"safety_ms\": %.3f, \"liveness_ms\": %.3f, \
     \"sccs\": %d, \"cyclic_sccs\": %d, \"fair_sccs\": %d, \
     \"livelock\": %b, \"lasso_prefix\": %d, \"lasso_cycle\": %d, \
     \"witness_oracle_agrees\": %b, \"bcast_control_live\": %b },\n"
    (Cgraph.n_nodes vc_graph)
    (t_vc_safety *. 1e3) (t_vc_live *. 1e3) vc_report.Liveness.sccs
    vc_report.Liveness.cyclic_sccs vc_report.Liveness.fair_sccs vc_livelock
    lasso_prefix lasso_cycle lasso_valid bcast_live;
  p "  \"out_of_core\": { \"case\": %S, \"cores_available\": %d,\n"
    ooc_case cores;
  p
    "    \"resident\": { \"states\": %d, \"states_per_sec\": %.1f, \
     \"wall_s\": %.3f, \"peak_rss_kb\": %d },\n"
    (kv_i ooc_resident "states")
    (kv_f ooc_resident "states_per_sec")
    (kv_f ooc_resident "wall_s")
    (kv_i ooc_resident "peak_rss_kb");
  p
    "    \"spilled\": { \"spill_threshold\": 20000, \
     \"states\": %d, \"states_per_sec\": %.1f, \"spill_segments\": %d, \
     \"spill_bytes\": %d, \"seg_faults\": %d, \"frozen_keys\": %d, \
     \"peak_rss_kb\": %d },\n"
    (kv_i ooc_spilled "states")
    (kv_f ooc_spilled "states_per_sec")
    (kv_i ooc_spilled "spill_segments")
    (kv_i ooc_spilled "spill_bytes")
    (kv_i ooc_spilled "seg_faults")
    (kv_i ooc_spilled "frozen_keys")
    (kv_i ooc_spilled "peak_rss_kb");
  p
    "    \"fingerprints_equal\": %b, \"outcomes_done\": %b, \
     \"spill_engaged\": %b, \"spill_dir_cleaned_on_done\": %b, \
     \"verdict_ok\": %b, \"oracle_agrees\": %b,\n"
    ooc_fingerprints_equal ooc_outcomes_done ooc_spill_engaged
    ooc_spill_cleaned ooc_verdict_ok ooc_oracle_agrees;
  (match ooc_big with
  | Some kv ->
    p
      "    \"big\": { \"case\": \"of:4:2\", \"skipped\": false, \
       \"spill_threshold\": 2000000, \"states\": %d, \
       \"states_per_sec\": %.1f, \"wall_s\": %.1f, \"peak_rss_kb\": %d, \
       \"spill_segments\": %d, \"spill_bytes\": %d, \"outcome\": %S, \
       \"min_states_target\": 10000000, \"reached_target\": %b } }\n"
      (kv_i kv "states") (kv_f kv "states_per_sec") (kv_f kv "wall_s")
      (kv_i kv "peak_rss_kb")
      (kv_i kv "spill_segments")
      (kv_i kv "spill_bytes") (kv_s kv "outcome")
      (kv_i kv "states" >= 10_000_000)
  | None ->
    p
      "    \"big\": { \"case\": \"of:4:2\", \"skipped\": true, \"hint\": \
       \"set LBSA_BENCH_BIG=1 to run the >= 1e7-state case\" } }\n");
  p ",\n";
  p
    "  \"robustness\": { \"crash_recovery\": { \"case\": \"dac:3 SIGKILL at \
     checkpoint.save:4\", \"killed\": %b, \"recovered_byte_identical\": %b, \
     \"recovery_ms\": %.1f },\n"
    crash_killed crash_recovered recovery_ms;
  p
    "    \"rio_shim\": { \"write_4k_ns\": %.0f, \"raw_write_4k_ns\": %.0f, \
     \"overhead_pct\": %.1f, \"overhead_class\": %S },\n"
    (t_rio_write *. 1e9) (t_raw_write *. 1e9) rio_overhead_pct
    (if rio_overhead_pct < 5. then "noise" else "regression");
  p
    "    \"fault_sweep\": { \"seed\": 7, \"rate_percent\": 20, \"ops\": 200, \
     \"served\": %d, \"refused\": %d, \"wrong\": %d, \"injected\": { \
     \"eintr\": %d, \"short_read\": %d, \"short_write\": %d, \"enospc\": %d, \
     \"eio\": %d }, \"retries_absorbed\": %d, \"backoffs\": %d } }\n"
    !sweep_survived !sweep_refused !sweep_wrong rio_ctr.Rio.c_eintr
    rio_ctr.Rio.c_short_read rio_ctr.Rio.c_short_write rio_ctr.Rio.c_enospc
    rio_ctr.Rio.c_eio rio_ctr.Rio.c_retries rio_ctr.Rio.c_backoffs;
  p "}\n";
  close_out oc;
  Fmt.pr "wrote BENCH_verify.json@."

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if mode = "tables" || mode = "all" then all_tables ();
  if mode = "explore" || mode = "all" then run_explore ();
  if mode = "micro" || mode = "all" then run_micro ();
  if mode = "--json" || mode = "json" then run_json ();
  Fmt.pr "@.done.@."
