(* The implementation framework and the paper's constructions:
   Observation 5.1 (PAC combinations), Lemma 6.4 (O'_n from n-consensus
   and 2-SA), and the classic snapshot-from-registers substrate. *)

open Lbsa

(* A fuzz campaign over fixed client programs: [trials] random schedules
   and object adversaries, every run checked for linearizability. *)
let campaign ~seed ~trials ~impl workloads =
  let r =
    Fuzz_engine.fuzz_impl ~trials ~seed (Fuzz_targets.fixed ~impl workloads)
  in
  match r.Fuzz_engine.failure with
  | None ->
    Alcotest.(check int) "all trials pass" trials r.Fuzz_engine.completed
  | Some f -> Alcotest.failf "%a" Fuzz_engine.pp_failure f

let test_identity_impl () =
  let impl = Implementation.identity (Register.spec ()) in
  let workloads =
    [| [ Register.write (Value.int 1); Register.read ];
       [ Register.write (Value.int 2); Register.read ] |]
  in
  match Harness.exhaustive ~impl ~workloads () with
  | Ok count -> Alcotest.(check bool) "some interleavings" true (count > 1)
  | Error _ -> Alcotest.fail "identity implementation must linearize"

let test_identity_campaign () =
  let impl = Implementation.identity (Classic.Queue_obj.spec ()) in
  let workloads =
    [|
      [ Classic.Queue_obj.enqueue (Value.int 1); Classic.Queue_obj.dequeue ];
      [ Classic.Queue_obj.enqueue (Value.int 2); Classic.Queue_obj.dequeue ];
    |]
  in
  campaign ~seed:1 ~trials:50 ~impl workloads

(* Observation 5.1(a): (n,m)-PAC from n-PAC + m-consensus. *)
let test_pac_nm_impl_exhaustive () =
  let impl = Pac_nm_impl.implementation ~n:2 ~m:2 in
  let workloads =
    [|
      [ Pac_nm.propose_p (Value.int 1) 1; Pac_nm.decide_p 1 ];
      [ Pac_nm.propose_c (Value.int 9) ];
      [ Pac_nm.propose_c (Value.int 8) ];
    |]
  in
  match Harness.exhaustive ~impl ~workloads () with
  | Ok count -> Alcotest.(check bool) "interleavings checked" true (count > 10)
  | Error h ->
    Alcotest.failf "Obs 5.1(a) violated:@.%a" (fun ppf -> Chistory.pp ppf) h

let test_pac_nm_impl_campaign () =
  let impl = Pac_nm_impl.implementation ~n:3 ~m:2 in
  let workloads =
    [|
      [ Pac_nm.propose_p (Value.int 1) 1; Pac_nm.decide_p 1;
        Pac_nm.propose_c (Value.int 5) ];
      [ Pac_nm.propose_p (Value.int 2) 2; Pac_nm.decide_p 2 ];
      [ Pac_nm.propose_c (Value.int 6); Pac_nm.propose_p (Value.int 3) 3;
        Pac_nm.decide_p 3 ];
    |]
  in
  campaign ~seed:11 ~trials:100 ~impl workloads

(* Observations 5.1(b,c): the facets. *)
let test_facets () =
  let impl_b = Facets.pac_from_pac_nm ~n:2 ~m:2 in
  let workloads_b =
    [|
      [ Pac.propose (Value.int 1) 1; Pac.decide 1 ];
      [ Pac.propose (Value.int 2) 2; Pac.decide 2 ];
    |]
  in
  (match Harness.exhaustive ~impl:impl_b ~workloads:workloads_b () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Obs 5.1(b) violated");
  let impl_c = Facets.consensus_from_pac_nm ~n:2 ~m:2 in
  let workloads_c =
    [|
      [ Consensus_obj.propose (Value.int 1) ];
      [ Consensus_obj.propose (Value.int 2) ];
      [ Consensus_obj.propose (Value.int 3) ];
    |]
  in
  match Harness.exhaustive ~impl:impl_c ~workloads:workloads_c () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Obs 5.1(c) violated"

(* Lemma 6.4: O'_n from n-consensus + 2-SA. *)
let test_oprime_impl_exhaustive () =
  let power = O_prime.default_power ~n:2 ~max_k:2 in
  let impl = Oprime_impl.implementation ~power in
  let workloads =
    [|
      [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 10) 2 ];
      [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 20) 2 ];
    |]
  in
  match Harness.exhaustive ~impl ~workloads () with
  | Ok count -> Alcotest.(check bool) "interleavings checked" true (count > 10)
  | Error h ->
    Alcotest.failf "Lemma 6.4 violated:@.%a" (fun ppf -> Chistory.pp ppf) h

let test_oprime_impl_campaign () =
  let power = O_prime.default_power ~n:2 ~max_k:4 in
  let impl = Oprime_impl.implementation ~power in
  (* Respect the port bounds: n_1 = 2, n_2 = 4, n_3 = 6, n_4 = 8. *)
  let workloads =
    [|
      [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 11) 2;
        O_prime.propose (Value.int 12) 3 ];
      [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 21) 2;
        O_prime.propose (Value.int 22) 4 ];
      [ O_prime.propose (Value.int 31) 2; O_prime.propose (Value.int 32) 3;
        O_prime.propose (Value.int 33) 4 ];
    |]
  in
  campaign ~seed:21 ~trials:100 ~impl workloads

(* The snapshot substrate. *)
let test_snapshot_impl_small () =
  let impl = Snapshot_impl.implementation ~n:2 in
  let workloads =
    [|
      [ Classic.Snapshot.update 0 (Value.int 1); Classic.Snapshot.scan ];
      [ Classic.Snapshot.update 1 (Value.int 2) ];
    |]
  in
  match Harness.exhaustive ~max_steps:80 ~impl ~workloads () with
  | Ok count -> Alcotest.(check bool) "interleavings checked" true (count > 10)
  | Error h ->
    Alcotest.failf "snapshot not linearizable:@.%a" (fun ppf -> Chistory.pp ppf) h

let test_snapshot_impl_campaign () =
  let impl = Snapshot_impl.implementation ~n:3 in
  let workloads =
    [|
      [ Classic.Snapshot.update 0 (Value.int 1); Classic.Snapshot.scan;
        Classic.Snapshot.update 0 (Value.int 2) ];
      [ Classic.Snapshot.update 1 (Value.int 3); Classic.Snapshot.scan ];
      [ Classic.Snapshot.scan; Classic.Snapshot.update 2 (Value.int 4) ];
    |]
  in
  campaign ~seed:31 ~trials:60 ~impl workloads

let test_naive_snapshot_broken () =
  (* The single-collect scan must be caught by the checker in some
     interleaving of one scanner and two sequential updaters. *)
  let impl = Snapshot_impl.naive ~n:3 in
  let workloads =
    [|
      [ Classic.Snapshot.scan ];
      [ Classic.Snapshot.update 1 (Value.int 7) ];
      [ Classic.Snapshot.update 2 (Value.int 8) ];
    |]
  in
  match Harness.exhaustive ~max_steps:60 ~impl ~workloads () with
  | Ok _ -> Alcotest.fail "naive snapshot should not be linearizable"
  | Error _ -> ()

(* Herlihy's universal construction. *)
let test_universal_fetch_and_add_exhaustive () =
  let impl =
    Universal.implementation ~n:2 ~target:(Classic.Fetch_and_add.spec ()) ()
  in
  let workloads =
    [| [ Classic.Fetch_and_add.fetch_and_add 1 ];
       [ Classic.Fetch_and_add.fetch_and_add 10 ] |]
  in
  match Harness.exhaustive ~max_steps:100 ~impl ~workloads () with
  | Ok count -> Alcotest.(check bool) "interleavings checked" true (count > 50)
  | Error h ->
    Alcotest.failf "universal FAA not linearizable:@.%a"
      (fun ppf -> Chistory.pp ppf)
      h

let test_universal_queue_campaign () =
  let target = Classic.Queue_obj.spec () in
  let impl = Universal.implementation ~n:3 ~target () in
  let workloads =
    [|
      [ Classic.Queue_obj.enqueue (Value.int 1); Classic.Queue_obj.dequeue ];
      [ Classic.Queue_obj.enqueue (Value.int 2); Classic.Queue_obj.dequeue ];
      [ Classic.Queue_obj.enqueue (Value.int 3); Classic.Queue_obj.dequeue ];
    |]
  in
  campaign ~seed:3 ~trials:200 ~impl workloads

let test_universal_pac_campaign () =
  (* The construction is generic: it can even host an n-PAC object. *)
  let target = Pac.spec ~n:3 () in
  let impl = Universal.implementation ~n:3 ~target () in
  let workloads =
    Array.init 3 (fun pid ->
        [ Pac.propose (Value.int pid) (pid + 1); Pac.decide (pid + 1) ])
  in
  campaign ~seed:13 ~trials:200 ~impl workloads

let test_universal_multiop_clients () =
  (* Several operations per client: the progress register must carry the
     frontier correctly from one operation to the next. *)
  let target = Classic.Fetch_and_add.spec () in
  let impl = Universal.implementation ~n:2 ~target () in
  let workloads =
    Array.init 2 (fun _ ->
        List.init 3 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1))
  in
  campaign ~seed:29 ~trials:200 ~impl workloads

let test_universal_port_budget () =
  (* The Theorem 7.1 boundary: drive a universal construction whose
     slots are (n-1)-consensus objects with n clients — some slot
     answers ⊥ to its n-th proposer and the construction collapses. *)
  let n = 3 in
  let impl =
    Universal.implementation ~consensus_m:(n - 1) ~n
      ~target:(Classic.Fetch_and_add.spec ())
      ()
  in
  let workloads =
    Array.init n (fun _ -> [ Classic.Fetch_and_add.fetch_and_add 1 ])
  in
  (* Force all three clients onto slot 0 simultaneously: round-robin. *)
  match
    Harness.run_clients ~impl ~workloads
      ~scheduler:(Scheduler.round_robin ~n) ()
  with
  | exception Universal.Port_budget_exceeded _ -> ()
  | _run ->
    Alcotest.fail "expected the undersized construction to collapse"

let test_universal_helping_completes_crashed_ops () =
  (* The heart of wait-freedom: client 0 announces an enqueue and
     crashes before ever proposing it; client 1 keeps operating, and the
     round-robin helpers insert 0's operation into the log anyway — so
     1's dequeue returns 0's value. *)
  let target = Classic.Queue_obj.spec () in
  let impl = Universal.implementation ~n:2 ~target () in
  let workloads =
    [|
      [ Classic.Queue_obj.enqueue (Value.int 77) ];
      [ Classic.Queue_obj.dequeue; Classic.Queue_obj.dequeue ];
    |]
  in
  (* Client 0 takes exactly 2 steps: read-progress + announce-write;
     then only client 1 runs. *)
  let scheduler = Fault.apply [ (0, 2) ] (Scheduler.starving 1 (Scheduler.round_robin ~n:2)) in
  let run = Harness.run_clients ~impl ~workloads ~scheduler () in
  (* Client 0 never completed its call... *)
  let calls_by_0 =
    List.filter (fun (c : Chistory.call) -> c.Chistory.pid = 0) run.Harness.history
  in
  Alcotest.(check int) "client 0 completed nothing" 0 (List.length calls_by_0);
  (* ...yet client 1's dequeues observe 77: the announced enqueue was
     helped into the log. *)
  let dequeue_results =
    List.filter_map
      (fun (c : Chistory.call) ->
        if c.Chistory.pid = 1 && c.Chistory.op.Op.name = "dequeue" then
          Some c.Chistory.response
        else None)
      run.Harness.history
  in
  Alcotest.(check bool) "a dequeue returned the crashed client's value" true
    (List.exists (Value.equal (Value.int 77)) dequeue_results)

let test_broken_oprime_impl_caught () =
  (* A subtly wrong Lemma 6.4 implementation: route every k >= 2 level
     to ONE shared 2-SA object.  Cross-level contamination (a member-2
     proposal answered with a value only ever proposed at member 3)
     violates the per-member validity of O'_n, and the checker finds
     it. *)
  let power = O_prime.default_power ~n:2 ~max_k:3 in
  let target = O_prime.spec ~power () in
  let base = [| Consensus_obj.spec ~m:2 (); Sa2.spec () |] in
  let route (op : Op.t) =
    match (op.Op.name, op.Op.args) with
    | "propose", [ v; { Value.node = Int 1; _ } ] -> (0, Consensus_obj.propose v)
    | "propose", [ v; { Value.node = Int _; _ } ] -> (1, Sa2.propose v)
    | _ -> invalid_arg "broken oprime"
  in
  let impl =
    Implementation.redirect ~name:"broken-oprime-shared-2sa" ~target ~base
      ~route
  in
  let workloads =
    [| [ O_prime.propose (Value.int 20) 2 ]; [ O_prime.propose (Value.int 30) 3 ] |]
  in
  match Harness.exhaustive ~impl ~workloads () with
  | Ok _ -> Alcotest.fail "the shared-2-SA shortcut should be caught"
  | Error _ -> ()

let test_universal_out_of_slots () =
  let impl =
    Universal.implementation ~max_slots:1 ~n:2
      ~target:(Classic.Fetch_and_add.spec ()) ()
  in
  let workloads =
    Array.init 2 (fun _ ->
        List.init 2 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1))
  in
  match
    Harness.run_clients ~impl ~workloads
      ~scheduler:(Scheduler.round_robin ~n:2) ()
  with
  | exception Universal.Out_of_slots _ -> ()
  | _ -> Alcotest.fail "expected Out_of_slots"

let test_single_writer_enforced () =
  let impl = Snapshot_impl.implementation ~n:2 in
  let workloads = [| [ Classic.Snapshot.update 1 (Value.int 1) ]; [] |] in
  match
    Harness.run_clients ~impl ~workloads
      ~scheduler:(Scheduler.round_robin ~n:2) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cross-component update must be rejected"

let () =
  Alcotest.run "implement"
    [
      ( "framework",
        [
          Alcotest.test_case "identity exhaustive" `Quick test_identity_impl;
          Alcotest.test_case "identity campaign" `Quick test_identity_campaign;
        ] );
      ( "observation-5.1",
        [
          Alcotest.test_case "(a) exhaustive" `Quick test_pac_nm_impl_exhaustive;
          Alcotest.test_case "(a) campaign" `Quick test_pac_nm_impl_campaign;
          Alcotest.test_case "(b) and (c) facets" `Quick test_facets;
        ] );
      ( "lemma-6.4",
        [
          Alcotest.test_case "exhaustive (n=2, K=2)" `Quick
            test_oprime_impl_exhaustive;
          Alcotest.test_case "campaign (n=2, K=4)" `Quick
            test_oprime_impl_campaign;
          Alcotest.test_case "broken variant caught" `Quick
            test_broken_oprime_impl_caught;
        ] );
      ( "universal",
        [
          Alcotest.test_case "fetch-and-add exhaustive" `Quick
            test_universal_fetch_and_add_exhaustive;
          Alcotest.test_case "queue campaign" `Quick
            test_universal_queue_campaign;
          Alcotest.test_case "hosts an n-PAC" `Quick
            test_universal_pac_campaign;
          Alcotest.test_case "multi-op clients" `Quick
            test_universal_multiop_clients;
          Alcotest.test_case "out of slots" `Quick test_universal_out_of_slots;
          Alcotest.test_case "port budget (Thm 7.1 boundary)" `Quick
            test_universal_port_budget;
          Alcotest.test_case "helping completes crashed ops" `Quick
            test_universal_helping_completes_crashed_ops;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "afek exhaustive (n=2)" `Slow
            test_snapshot_impl_small;
          Alcotest.test_case "afek campaign (n=3)" `Quick
            test_snapshot_impl_campaign;
          Alcotest.test_case "naive is broken" `Quick test_naive_snapshot_broken;
          Alcotest.test_case "single-writer enforced" `Quick
            test_single_writer_enforced;
        ] );
    ]
