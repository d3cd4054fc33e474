(* The conformance fuzzing engine: target coverage, the deterministic
   multi-domain fan-out, clean sweeps over honest targets, and the
   known-bad fixtures that the oracle must catch and shrink. *)

open Lbsa

let prefix s = List.hd (String.split_on_char ':' s)

let test_spec_targets_cover_registry () =
  (* One concrete fuzz target per registry row: a new object added to
     Registry.known cannot dodge the fuzzer without failing here. *)
  let targets = Fuzz_targets.all_specs () in
  Alcotest.(check int) "one target per registry row"
    (List.length Registry.known) (List.length targets);
  List.iter
    (fun (syntax, _) ->
      let p = prefix syntax in
      if
        not
          (List.exists (fun t -> prefix t.Fuzz_targets.desc = p) targets)
      then Alcotest.failf "registry object %S has no fuzz target" syntax)
    Registry.known

(* Every malformed description is refused with [Invalid_argument], as
   the interface promises: a non-integer size must not escape as
   [Failure "int_of_string"]. *)
let test_malformed_descriptions_refused () =
  let refused what parse desc =
    match parse desc with
    | _ -> Alcotest.failf "%s %S accepted" what desc
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "%s %S raised %s" what desc (Printexc.to_string e)
  in
  List.iter
    (refused "impl" Fuzz_targets.impl_target)
    [
      "snapshot:x"; "naive-snapshot:"; "pacnm:2:x"; "pacnm:x:2"; "oprime:2:x";
      "universal:x"; "pac-facet:2:x"; "cons-facet:x:2"; "mutant-pac:x";
      "identity:pac:x"; "identity:"; "snapshot:0"; "universal:0"; "snapshot";
      "bogus:1";
    ];
  List.iter
    (refused "spec" Fuzz_targets.spec_target)
    [
      "pac:x"; "reg:x"; "cons:x"; "nksa:3:x"; "pacnm:x:2"; "on:x";
      "oprime:2:x"; "snapshot:x"; "mpnet:2:x"; "mpnet:x:2"; "mpnet:0:2";
      "bogus";
    ]

let test_fan_deterministic_across_domains () =
  (* The first failing trial index — and the completed prefix, which
     ends at it — is a pure function of the predicate, never of the
     domain count or scheduling. *)
  let run i = if i >= 37 && i mod 7 = 2 then Some (i * i) else None in
  let expect = Some (37, 37 * 37) in
  List.iter
    (fun domains ->
      let r = Fuzz_engine.fan ~domains ~trials:200 ~run () in
      Alcotest.(check (option (pair int int)))
        (Fmt.str "domains=%d" domains) expect r.Fuzz_engine.hit;
      Alcotest.(check int)
        (Fmt.str "domains=%d: completed up to the hit" domains)
        37 r.Fuzz_engine.fan_completed)
    [ 1; 2; 3; 8 ];
  let r = Fuzz_engine.fan ~domains:4 ~trials:30 ~run:(fun _ -> None) () in
  Alcotest.(check (option (pair int int))) "no failure" None r.Fuzz_engine.hit;
  Alcotest.(check int) "all trials completed" 30 r.Fuzz_engine.fan_completed

let test_spec_sweep_clean () =
  (* Bounded version of `lbsa fuzz`'s spec campaign: every registry
     object round-trips generator -> checker -> corrupt with no
     failure. *)
  List.iter
    (fun t ->
      let r = Fuzz_engine.fuzz_spec ~domains:1 ~trials:60 ~seed:2026 t in
      match r.Fuzz_engine.failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "spec %s failed: %a" t.Fuzz_targets.desc
          Fuzz_engine.pp_failure f)
    (Fuzz_targets.all_specs ())

let test_impl_sweep_clean_with_faults () =
  (* Every honest construction survives random schedules AND crash
     faults: in-flight calls at a crash enter the history as pending and
     the extended oracle must still certify linearizability. *)
  List.iter
    (fun t ->
      let r =
        Fuzz_engine.fuzz_impl ~domains:1 ~faults:2 ~trials:40 ~seed:2026 t
      in
      match r.Fuzz_engine.failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "impl %s failed: %a" t.Fuzz_targets.idesc
          Fuzz_engine.pp_failure f)
    (Fuzz_targets.all_impls ())

let catch_and_shrink ~desc ~trials ~max_shrunk_calls =
  let t = Fuzz_targets.impl_target desc in
  let r = Fuzz_engine.fuzz_impl ~domains:1 ~trials ~seed:42 t in
  match r.Fuzz_engine.failure with
  | None -> Alcotest.failf "fuzzer missed known-bad %s in %d trials" desc trials
  | Some f ->
    (match f.Fuzz_engine.kind with
    | Fuzz_engine.Violation -> ()
    | k -> Alcotest.failf "%s: expected a violation, got %a" desc
             Fuzz_engine.pp_kind k);
    (match f.Fuzz_engine.shrunk with
    | None -> Alcotest.failf "%s: no shrunk counterexample" desc
    | Some (c, h) ->
      let calls = Fuzz_case.n_calls c in
      if calls > max_shrunk_calls then
        Alcotest.failf "%s: shrunk to %d calls, expected <= %d" desc calls
          max_shrunk_calls;
      (* The shrunk case must still reproduce from its own record. *)
      (match Fuzz_engine.eval_impl_case ~impl:t.Fuzz_targets.impl c with
      | Fuzz_engine.Bad (Fuzz_engine.Violation, h', _) ->
        Alcotest.(check bool) "shrunk case replays its history" true (h = h')
      | _ -> Alcotest.failf "%s: shrunk case does not reproduce" desc));
    f

let test_mutant_pac_caught_and_shrunk () =
  (* The seeded spec mutation (flipped propose-path upset guard): the
     fuzzer must catch it and shrink to the essence — propose; propose;
     decide on one label, hence <= 6 calls (observed: 3). *)
  let f = catch_and_shrink ~desc:"mutant-pac:2" ~trials:500 ~max_shrunk_calls:6 in
  ignore f

let test_naive_snapshot_caught () =
  let f =
    catch_and_shrink ~desc:"naive-snapshot:3" ~trials:500 ~max_shrunk_calls:8
  in
  ignore f

let test_identity_targets_clean () =
  (* Identity implementations are correct by construction: a violation
     here would be an oracle (not implementation) bug. *)
  List.iter
    (fun desc ->
      let t = Fuzz_targets.impl_target ("identity:" ^ desc) in
      let r = Fuzz_engine.fuzz_impl ~domains:1 ~trials:60 ~seed:7 t in
      match r.Fuzz_engine.failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "identity:%s failed: %a" desc Fuzz_engine.pp_failure f)
    [ "reg"; "2sa"; "queue"; "pac:2" ]

let test_case_generation_respects_call_cap () =
  (* Workload clamping keeps every generated case within the checker's
     62-call bitmask bound, whatever the requested per-process sizes. *)
  let t = Fuzz_targets.spec_target "faa" in
  for trial = 0 to 199 do
    let prng = Prng.of_substream ~seed:11 ~index:trial in
    let case =
      Fuzz_case.gen ~prng
        ~gen_workloads:(Fuzz_targets.spec_workloads t ~procs:9 ~ops_per_proc:20)
        ~procs:9 ~max_faults:3 ()
    in
    if Fuzz_case.n_calls case > Lin_checker.max_calls then
      Alcotest.failf "case with %d calls exceeds the checker cap"
        (Fuzz_case.n_calls case)
  done

let test_shrinks_strictly_decrease () =
  (* Spot-check the well-founded shrink measure on generated cases. *)
  let t = Fuzz_targets.spec_target "queue" in
  let measure (c : Fuzz_case.t) =
    let sched_rank =
      match c.Fuzz_case.sched with
      | Fuzz_case.Rr -> 0
      | Fuzz_case.Rand _ -> 1
      | Fuzz_case.Bursts _ -> 2
    in
    Fuzz_case.n_calls c
    + List.length c.Fuzz_case.faults
    + List.fold_left (fun a (_, b) -> a + b) 0 c.Fuzz_case.faults
    + sched_rank
  in
  for trial = 0 to 49 do
    let prng = Prng.of_substream ~seed:5 ~index:trial in
    let case =
      Fuzz_case.gen ~prng
        ~gen_workloads:(Fuzz_targets.spec_workloads t ~procs:3 ~ops_per_proc:4)
        ~procs:3 ~max_faults:2 ()
    in
    List.iter
      (fun c ->
        if measure c >= measure case then
          Alcotest.failf "shrink candidate does not decrease the measure")
      (Fuzz_case.shrinks case)
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "targets",
        [
          Alcotest.test_case "specs cover the registry" `Quick
            test_spec_targets_cover_registry;
          Alcotest.test_case "identity impls clean" `Quick
            test_identity_targets_clean;
          Alcotest.test_case "malformed descriptions refused" `Quick
            test_malformed_descriptions_refused;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fan deterministic across domains" `Quick
            test_fan_deterministic_across_domains;
          Alcotest.test_case "case generation respects call cap" `Quick
            test_case_generation_respects_call_cap;
          Alcotest.test_case "shrinks strictly decrease" `Quick
            test_shrinks_strictly_decrease;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "all registry specs clean" `Quick
            test_spec_sweep_clean;
          Alcotest.test_case "honest impls clean under crash faults" `Quick
            test_impl_sweep_clean_with_faults;
        ] );
      ( "known-bad",
        [
          Alcotest.test_case "mutant PAC caught and shrunk" `Quick
            test_mutant_pac_caught_and_shrunk;
          Alcotest.test_case "naive snapshot caught" `Quick
            test_naive_snapshot_caught;
        ] );
    ]
