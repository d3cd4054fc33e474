(* universal_demo: Herlihy's universal construction, the theorem behind
   the paper's whole question.

   Build and run:  dune exec examples/universal_demo.exe

   "Instances of any object with consensus number n, together with
   registers, can implement any object that can be shared by up to n
   processes" (Herlihy 1991, cited in Section 1 of the paper).  We build
   a FIFO queue, a fetch-and-add counter, and even an n-PAC object out
   of nothing but n-consensus objects and registers, drive them with
   concurrent clients, and check every run against the target's
   sequential specification with the Wing-Gong checker. *)

open Lbsa

let show_target ~name ~target ~workloads ~trials =
  let n = Array.length workloads in
  let impl = Universal.implementation ~n ~target () in
  Fmt.pr "@.== %s among %d processes, from %d-consensus + registers ==@." name
    n n;
  (* One verbose run under a random schedule. *)
  let run =
    Harness.run_clients ~impl ~workloads ~scheduler:(Scheduler.random ~seed:42)
      ()
  in
  Fmt.pr "  one run (%d base-object steps):@." run.Harness.steps;
  List.iter
    (fun (c : Chistory.call) ->
      Fmt.pr "    p%d  %a -> %a@." c.Chistory.pid Op.pp c.Chistory.op Value.pp
        c.Chistory.response)
    run.Harness.history;
  (match Lin_checker.check target run.Harness.history with
  | Lin_checker.Linearizable order ->
    Fmt.pr "  linearizable; witness order: %a@."
      Fmt.(
        list ~sep:(any " < ") (fun ppf (c : Chistory.call) ->
            Fmt.pf ppf "p%d.%s" c.Chistory.pid c.Chistory.op.Op.name))
      order
  | Lin_checker.Not_linearizable -> Fmt.pr "  NOT linearizable (bug!)@.");
  (* Then a fuzz campaign: the same client programs under random
     schedules and object adversaries. *)
  let r =
    Fuzz_engine.fuzz_impl ~trials ~seed:1 (Fuzz_targets.fixed ~impl workloads)
  in
  match r.Fuzz_engine.failure with
  | None ->
    Fmt.pr "  campaign: %d/%d random schedules linearizable@." trials trials
  | Some f -> Fmt.pr "  campaign: trial %d FAILED@." f.Fuzz_engine.trial

let () =
  Fmt.pr
    "Herlihy's universal construction: one log of consensus-decided slots,@.\
     announce registers, and round-robin helping.@.";

  show_target ~name:"FIFO queue"
    ~target:(Classic.Queue_obj.spec ())
    ~workloads:
      [|
        [ Classic.Queue_obj.enqueue (Value.int 1); Classic.Queue_obj.dequeue ];
        [ Classic.Queue_obj.enqueue (Value.int 2) ];
        [ Classic.Queue_obj.dequeue ];
      |]
    ~trials:300;

  show_target ~name:"fetch-and-add counter"
    ~target:(Classic.Fetch_and_add.spec ())
    ~workloads:
      (Array.init 3 (fun _ ->
           List.init 2 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1)))
    ~trials:300;

  (* The punchline: the universal construction happily hosts the paper's
     own n-PAC object — PAC is deterministic, so Herlihy's theorem
     applies to it like to anything else.  What the paper shows is that
     *set agreement power* (unlike consensus number, which powers this
     construction) cannot play that role. *)
  show_target ~name:"3-PAC object"
    ~target:(Pac.spec ~n:3 ())
    ~workloads:
      (Array.init 3 (fun pid ->
           [ Pac.propose (Value.int pid) (pid + 1); Pac.decide (pid + 1) ]))
    ~trials:300;

  Fmt.pr "@.Done.@."
