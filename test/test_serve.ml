(* The verification service: canonical keys, the content-addressed
   store under fault injection, the daemon's cache layers (memory,
   persistent, cross-restart), single-flight coalescing under
   concurrent clients, fuzz-prefix resumption, and the CLI front-end.

   The battery's central property: for every query, the answer a client
   receives is byte-identical whether it was computed cold, served from
   the in-memory memo, served from the persistent store after a daemon
   restart, or reassembled from a resumed fuzz prefix. *)

open Lbsa

(* --- scratch plumbing --------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fresh_path suffix =
  let f = Filename.temp_file "lbsa-serve" suffix in
  Sys.remove f;
  f

let fresh_dir () =
  let d = fresh_path ".store" in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Run [f] against a live in-process daemon; always drain it afterwards
   (even on test failure) so the domain can be joined.  Returns [f]'s
   result and the daemon's final counters. *)
let with_daemon ?(workers = 2) ?default_deadline_s ?(store_probe_s = 5.) ~dir f
    =
  let socket = fresh_path ".sock" in
  let d =
    Domain.spawn (fun () ->
        Serve_daemon.run
          {
            Serve_daemon.socket;
            store_dir = dir;
            workers;
            default_deadline_s;
            store_probe_s;
            log = false;
          })
  in
  (* wait until the daemon accepts before handing the socket to [f]:
     tests must never race the bind (a second in-process daemon started
     too early would win it and serve forever in this thread) *)
  (match Serve_client.connect ~wait_s:10. ~socket () with
  | Ok c -> Serve_client.close c
  | Error msg -> Alcotest.failf "daemon did not come up: %s" msg);
  let res =
    Fun.protect
      ~finally:(fun () ->
        match Serve_client.connect ~wait_s:10. ~socket () with
        | Ok c ->
          ignore (Serve_client.shutdown c);
          Serve_client.close c
        | Error _ -> ())
      (fun () -> f ~socket)
  in
  let stats = Domain.join d in
  (res, stats)

let connect ~socket =
  match Serve_client.connect ~wait_s:10. ~socket () with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let ask ?deadline_s c q =
  match Serve_client.query ?deadline_s c q with
  | Ok (r, cached, _wall) -> (r, cached)
  | Error msg -> Alcotest.failf "query %s: %s" (Serve_api.canonical q) msg

(* --- canonical keys ----------------------------------------------------- *)

let max_states = 200_000

let verify ?(question = Serve_api.Solve) ?(reduce = `None) ?substrate ?inputs
    task =
  let inputs =
    match inputs with Some l -> l | None -> Serve_api.default_inputs task
  in
  let substrate =
    match substrate with
    | Some s -> s
    | None -> Serve_api.default_substrate task
  in
  Serve_api.Verify { task; question; inputs; max_states; reduce; substrate }

(* The golden pin: the canonical preimage format and its digest are the
   persistent store's on-disk address space — drift invalidates (or
   worse, silently re-addresses) every existing store.  Bump the
   lbsa-query/N version tag deliberately, never accidentally. *)
let test_canonical_golden () =
  let q = verify ~reduce:`Sym (Serve_api.Dac { n = 3 }) in
  Alcotest.(check string)
    "canonical preimage"
    "lbsa-query/2 verify task=dac:3 question=solve inputs=1,0,0 \
     max_states=200000 reduce=sym substrate=shm"
    (Serve_api.canonical q);
  Alcotest.(check string) "digest" "1aee6902e752d54b" (Serve_api.key q)

(* Regression for the fingerprint defect this PR fixes: every
   key-determining parameter must separate the canonical preimage.  The
   original `lbsa fingerprint` ignored the reduction mode, the input
   vector and the state quota, so e.g. sym and sym+sleep runs of the
   same task shared a fingerprint — in a cache, one mode's answer would
   be served for the other. *)
let test_key_separation () =
  let dac = Serve_api.Dac { n = 3 } in
  let base = verify dac in
  let distinct label a b =
    if Serve_api.canonical a = Serve_api.canonical b then
      Alcotest.failf "%s: canonicals collide (%s)" label
        (Serve_api.canonical a);
    if Serve_api.key a = Serve_api.key b then
      Alcotest.failf "%s: keys collide" label
  in
  distinct "reduce none/sym" base (verify ~reduce:`Sym dac);
  distinct "reduce sym/sym+sleep" (verify ~reduce:`Sym dac)
    (verify ~reduce:`Sym_sleep dac);
  distinct "reduce none/sym+sleep" base (verify ~reduce:`Sym_sleep dac);
  distinct "inputs" base (verify ~inputs:[ 0; 0; 0 ] dac);
  distinct "question" base (verify ~question:Serve_api.Valence dac);
  distinct "max_states" base
    (Serve_api.Verify
       {
         task = dac;
         question = Serve_api.Solve;
         inputs = Serve_api.default_inputs dac;
         max_states = max_states + 1;
         reduce = `None;
         substrate = "shm";
       });
  distinct "task" base (verify (Serve_api.Consensus { m = 2 }));
  (* the /2 additions: substrate and the liveness question are
     graph-changing, so they must separate keys too *)
  let vc = Serve_api.Vc { n = 2 } in
  distinct "substrate shm/mp" (verify ~substrate:"shm" vc)
    (verify ~substrate:"mp" vc);
  distinct "substrate mp/mp+byz"
    (verify ~substrate:"mp" vc)
    (verify ~substrate:"mp+byz:1" vc);
  distinct "question solve/live" (verify vc)
    (verify ~question:Serve_api.Live vc);
  distinct "task vc/bcast" (verify vc) (verify (Serve_api.Bcast { n = 2 }));
  distinct "verify/fuzz"
    base
    (Serve_api.Fuzz { target = "queue"; trials = 1; procs = 2; ops = 2; seed = 1 })

(* --- the store under fault injection ------------------------------------ *)

(* [Store.put] reports device-level failures as [Error]; these tests run
   against a healthy filesystem, so any [Error] is itself a failure. *)
let put_ok s ~key ~canonical ~data =
  match Serve_store.put s ~key ~canonical ~data with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "Store.put failed: %s" msg

let test_store_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      put_ok s ~key:"abcd" ~canonical:"question one" ~data:"answer";
      Alcotest.(check (option string))
        "roundtrip" (Some "answer")
        (Serve_store.get s ~key:"abcd" ~canonical:"question one");
      Alcotest.(check (list string)) "listed" [ "abcd" ] (Serve_store.entries s);
      (* overwrite is atomic and replaces *)
      put_ok s ~key:"abcd" ~canonical:"question one" ~data:"answer2";
      Alcotest.(check (option string))
        "overwrite" (Some "answer2")
        (Serve_store.get s ~key:"abcd" ~canonical:"question one");
      Alcotest.(check int) "no corruption seen" 0 (Serve_store.corrupt_count s))

(* Apply [mutate] to the entry file and check the store detects it,
   deletes the entry, and a rewrite then works again. *)
let check_detects label mutate =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let key = "deadbeef00000001" and canonical = "some question" in
      put_ok s ~key ~canonical ~data:"the answer";
      mutate (Serve_store.path s ~key);
      Alcotest.(check (option string))
        (label ^ ": detected as a miss") None
        (Serve_store.get s ~key ~canonical);
      Alcotest.(check int) (label ^ ": counted") 1 (Serve_store.corrupt_count s);
      Alcotest.(check bool)
        (label ^ ": evicted") false
        (Sys.file_exists (Serve_store.path s ~key));
      (* the recompute-and-rewrite path restores service *)
      put_ok s ~key ~canonical ~data:"the answer";
      Alcotest.(check (option string))
        (label ^ ": rewrite serves") (Some "the answer")
        (Serve_store.get s ~key ~canonical))

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file f s =
  let oc = open_out_bin f in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_store_truncation () =
  check_detects "truncated" (fun file ->
      let s = read_file file in
      write_file file (String.sub s 0 (String.length s - 3)))

let test_store_payload_flip () =
  check_detects "payload byte flip" (fun file ->
      let s = Bytes.of_string (read_file file) in
      let i = Bytes.length s - 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x40));
      write_file file (Bytes.to_string s))

let test_store_checksum_flip () =
  check_detects "checksum byte flip" (fun file ->
      let s = Bytes.of_string (read_file file) in
      (* the checksum line sits right after the magic; flip a hex digit
         to another valid hex digit *)
      let i = String.length "LBSA-STORE/1\n" in
      Bytes.set s i (if Bytes.get s i = '0' then '1' else '0');
      write_file file (Bytes.to_string s))

let test_store_garbage () =
  check_detects "garbage file" (fun file -> write_file file "not a store entry")

let test_store_empty_file () =
  check_detects "empty file" (fun file -> write_file file "")

(* A digest collision (or a hand-renamed entry): the file is internally
   pristine — magic and checksum verify — but it answers a different
   canonical question.  The preimage check must refuse it; routing by
   digest alone would serve query A's answer to query B. *)
let test_store_collision_refused () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      put_ok s ~key:"aaaa" ~canonical:"question A" ~data:"answer A";
      (* simulate key "bbbb" hashing to the same file contents as "aaaa" *)
      write_file (Serve_store.path s ~key:"bbbb")
        (read_file (Serve_store.path s ~key:"aaaa"));
      Alcotest.(check (option string))
        "collision refused" None
        (Serve_store.get s ~key:"bbbb" ~canonical:"question B");
      Alcotest.(check int) "counted as corrupt" 1 (Serve_store.corrupt_count s);
      Alcotest.(check (option string))
        "original untouched" (Some "answer A")
        (Serve_store.get s ~key:"aaaa" ~canonical:"question A"))

(* The payload guard: a body over [max_payload] is refused outright —
   no file, no corruption count, just an oversized count — and the key
   stays serviceable for normally-sized rewrites. *)
let test_store_oversized_refused () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let key = "feedface00000001" and canonical = "a big question" in
      put_ok s ~key ~canonical
        ~data:(String.make (Serve_store.max_payload + 1) 'x');
      Alcotest.(check bool)
        "nothing written" false
        (Sys.file_exists (Serve_store.path s ~key));
      Alcotest.(check (option string))
        "reported as a miss" None
        (Serve_store.get s ~key ~canonical);
      Alcotest.(check int) "counted oversized" 1 (Serve_store.oversized_count s);
      Alcotest.(check int)
        "not counted corrupt" 0 (Serve_store.corrupt_count s);
      (* the same key still takes a sane entry afterwards *)
      put_ok s ~key ~canonical ~data:"a small answer";
      Alcotest.(check (option string))
        "small rewrite serves" (Some "a small answer")
        (Serve_store.get s ~key ~canonical))

(* The other half of the guard, end to end: a quota-truncated explore
   answers with a fixed-size verdict+stats summary, never the graph.
   However many states the exploration visited, what crosses the wire
   and what lands in the store stays a few hundred bytes — far under
   both the 16 MB frame cap and the store's [max_payload] — so a
   >=10^7-state answer can never die as a frame error on a cache hit. *)
let test_truncated_explore_roundtrips_as_summary () =
  let task = Serve_api.Dac { n = 3 } in
  let q =
    Serve_api.Verify
      {
        task;
        question = Serve_api.Solve;
        inputs = Serve_api.default_inputs task;
        max_states = 40;  (* dac:3 has 190 reachable states: quota fires *)
        reduce = `None;
        substrate = "shm";
      }
  in
  let computed = Serve_api.compute q in
  (match computed.Serve_api.res with
  | Serve_api.Verdict v ->
    Alcotest.(check string) "quota fired" "truncated" v.Serve_api.v_outcome
  | _ -> Alcotest.fail "solve answered with a non-verdict result");
  Alcotest.(check bool)
    "truncated answers are cacheable (max_states is in the key)" true
    computed.Serve_api.cacheable;
  Alcotest.(check bool)
    "the marshalled answer is a summary, not a graph" true
    (String.length (Marshal.to_string computed.Serve_api.res []) < 4096);
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, cached1 = ask c q in
                Alcotest.(check bool) "cold is computed" false cached1;
                let r2, cached2 = ask c q in
                Alcotest.(check bool) "truncated answer cached" true cached2;
                Alcotest.(check string)
                  "warm = cold" (Serve_api.render r1) (Serve_api.render r2)))
      in
      let s = Serve_store.open_ ~dir in
      let key = Serve_api.key q in
      let file = Serve_store.path s ~key in
      Alcotest.(check bool) "entry persisted" true (Sys.file_exists file);
      Alcotest.(check bool)
        "persisted entry is summary-sized" true
        ((Unix.stat file).Unix.st_size < 4096))

(* --- cache-identity property over the task registry --------------------- *)

let matrix_tasks =
  [
    Serve_api.Dac { n = 3 };
    Serve_api.Consensus { m = 2 };
    Serve_api.Kset { m = 2; k = 2 };
    (* a failing candidate: FAIL answers must cache byte-identically too *)
    Serve_api.Candidate { name = "flp-write-read" };
  ]

let matrix =
  List.concat_map
    (fun task ->
      List.concat_map
        (fun reduce ->
          [
            verify ~question:Serve_api.Solve ~reduce task;
            verify ~question:Serve_api.Valence ~reduce task;
          ])
        [ `None; `Sym; `Sym_sleep ])
    matrix_tasks

(* Every registry protocol/task pair x every --reduce mode x both
   questions: the cold in-process answer, the daemon's computed answer,
   the warm in-memory answer, and the cross-restart store answer must
   render byte-identically. *)
let test_cache_identity_matrix () =
  let reference =
    List.map (fun q -> (q, Serve_api.render (Serve_api.compute q).res)) matrix
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), stats1 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r_cold, cached_cold = ask c q in
                    Alcotest.(check bool)
                      ("cold is computed: " ^ Serve_api.canonical q)
                      false cached_cold;
                    Alcotest.(check string)
                      ("cold = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r_cold);
                    let r_warm, cached_warm = ask c q in
                    Alcotest.(check bool)
                      ("warm is cached: " ^ Serve_api.canonical q)
                      true cached_warm;
                    Alcotest.(check string)
                      ("warm = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r_warm))
                  reference))
      in
      let n = List.length reference in
      Alcotest.(check int) "one computation per key" n stats1.Serve_wire.st_computed;
      Alcotest.(check int) "one memo hit per key" n stats1.Serve_wire.st_hits_mem;
      (* restart on the same store: every answer must come back from
         disk, byte-identical, with zero computations *)
      let (), stats2 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r, cached = ask c q in
                    Alcotest.(check bool)
                      ("restart hit: " ^ Serve_api.canonical q)
                      true cached;
                    Alcotest.(check string)
                      ("restart = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r))
                  reference))
      in
      Alcotest.(check int)
        "restart: no recomputation" 0 stats2.Serve_wire.st_computed;
      Alcotest.(check int)
        "restart: all answers from the store" n stats2.Serve_wire.st_hits_store;
      Alcotest.(check int)
        "restart: store pristine" 0 stats2.Serve_wire.st_corrupt)

(* Liveness answers cache like safety answers: cold, warm and
   cross-restart renders byte-identical — including the livelock case,
   whose render carries the fair-SCC counts and shrunk-lasso shape. *)
let test_live_cache_identity () =
  let qs =
    [
      verify ~question:Serve_api.Live (Serve_api.Vc { n = 2 });
      verify ~question:Serve_api.Live (Serve_api.Bcast { n = 2 });
    ]
  in
  let reference =
    List.map (fun q -> (q, Serve_api.render (Serve_api.compute q).res)) qs
  in
  (match reference with
  | (_, vc_render) :: (_, bcast_render) :: _ ->
    Alcotest.(check bool)
      "vc:2 is a livelock" true
      (contains_sub ~sub:"LIVELOCK" vc_render);
    Alcotest.(check bool)
      "bcast:2 is live" true
      (contains_sub ~sub:"LIVE" bcast_render
      && not (contains_sub ~sub:"LIVELOCK" bcast_render))
  | _ -> Alcotest.fail "reference renders missing");
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r1, cached1 = ask c q in
                    Alcotest.(check bool)
                      ("cold is computed: " ^ Serve_api.canonical q)
                      false cached1;
                    Alcotest.(check string)
                      ("cold = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r1);
                    let r2, cached2 = ask c q in
                    Alcotest.(check bool)
                      ("warm is cached: " ^ Serve_api.canonical q)
                      true cached2;
                    Alcotest.(check string)
                      ("warm = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r2))
                  reference))
      in
      let (), stats2 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r, cached = ask c q in
                    Alcotest.(check bool)
                      ("restart hit: " ^ Serve_api.canonical q)
                      true cached;
                    Alcotest.(check string)
                      ("restart = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r))
                  reference))
      in
      Alcotest.(check int)
        "restart: no recomputation" 0 stats2.Serve_wire.st_computed)

(* Corrupt the store between restarts: the daemon must detect, log,
   recompute, answer identically, and heal the entry on disk. *)
let test_daemon_recovers_from_corrupt_store () =
  let q = verify ~reduce:`Sym (Serve_api.Dac { n = 3 }) in
  let key = Serve_api.key q in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let want, _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () -> Serve_api.render (fst (ask c q))))
      in
      (* flip a payload byte in the persisted entry *)
      let s = Serve_store.open_ ~dir in
      let file = Serve_store.path s ~key in
      Alcotest.(check bool) "entry persisted" true (Sys.file_exists file);
      let b = Bytes.of_string (read_file file) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      write_file file (Bytes.to_string b);
      let (render2, cached2), stats =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r, cached = ask c q in
                (Serve_api.render r, cached)))
      in
      Alcotest.(check bool) "recomputed, not served corrupt" false cached2;
      Alcotest.(check string) "identical answer after recompute" want render2;
      Alcotest.(check int) "corruption counted" 1 stats.Serve_wire.st_corrupt;
      (* the rewrite healed the entry: a third daemon serves from disk *)
      let cached3, _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () -> snd (ask c q)))
      in
      Alcotest.(check bool) "healed entry serves" true cached3)

(* --- concurrent clients and single-flight -------------------------------- *)

(* N clients fire interleaved duplicate and distinct queries at one
   daemon.  Deterministic guarantees, independent of scheduling: every
   client sees the same answer for the same query; each distinct key is
   computed exactly once (a duplicate either joins the in-flight job or
   hits a cache — never re-runs); and shutdown drains cleanly with all
   clients answered. *)
let test_concurrent_single_flight () =
  let distinct =
    [
      verify (Serve_api.Dac { n = 3 });
      verify ~reduce:`Sym (Serve_api.Dac { n = 3 });
      verify (Serve_api.Consensus { m = 2 });
      verify ~question:Serve_api.Valence (Serve_api.Kset { m = 2; k = 2 });
    ]
  in
  (* every client asks the first query 3 extra times, interleaved *)
  let per_client = (List.hd distinct :: distinct) @ [ List.hd distinct; List.hd distinct ] in
  let n_clients = 6 in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let answers, stats =
        with_daemon ~dir (fun ~socket ->
            let clients =
              List.init n_clients (fun _ ->
                  Domain.spawn (fun () ->
                      let c = connect ~socket in
                      Fun.protect
                        ~finally:(fun () -> Serve_client.close c)
                        (fun () ->
                          List.map
                            (fun q ->
                              (Serve_api.canonical q,
                               Serve_api.render (fst (ask c q))))
                            per_client)))
            in
            List.concat_map Domain.join clients)
      in
      (* determinism: one render per canonical across all clients *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (canonical, render) ->
          match Hashtbl.find_opt tbl canonical with
          | None -> Hashtbl.add tbl canonical render
          | Some prior ->
            Alcotest.(check string)
              ("deterministic across clients: " ^ canonical)
              prior render)
        answers;
      Alcotest.(check int)
        "every distinct key answered"
        (List.length distinct) (Hashtbl.length tbl);
      let total = n_clients * List.length per_client in
      let d = List.length distinct in
      Alcotest.(check int) "all queries answered" total
        (List.length answers);
      Alcotest.(check int) "queries counted" total stats.Serve_wire.st_queries;
      Alcotest.(check int)
        "single-flight: one computation per distinct key" d
        stats.Serve_wire.st_computed;
      Alcotest.(check int)
        "one miss per distinct key" d stats.Serve_wire.st_misses;
      Alcotest.(check int)
        "every duplicate joined or hit a cache" (total - d)
        (stats.Serve_wire.st_joined + stats.Serve_wire.st_hits_mem
        + stats.Serve_wire.st_hits_store))

(* --- fuzz campaigns: caching and prefix resumption ----------------------- *)

let fuzz_q ~trials =
  Serve_api.Fuzz { target = "queue"; trials; procs = 3; ops = 3; seed = 42 }

let test_fuzz_caches_clean_run () =
  let q = fuzz_q ~trials:40 in
  let want = Serve_api.render (Serve_api.compute q).res in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, cached1 = ask c q in
                Alcotest.(check bool) "cold" false cached1;
                Alcotest.(check string) "cold render" want (Serve_api.render r1);
                let r2, cached2 = ask c q in
                Alcotest.(check bool) "warm" true cached2;
                Alcotest.(check string) "warm render" want (Serve_api.render r2)))
      in
      ())

(* A deadline-cut campaign persists its completed-trial prefix; the
   identical re-query resumes from it and the final answer is
   byte-identical to an uninterrupted run's.  Timing-tolerant: if the
   box is fast enough that the capped run completes anyway, the test
   degrades to the plain cache-identity check. *)
let test_fuzz_prefix_resume () =
  let q = fuzz_q ~trials:4_000 in
  let want = Serve_api.render (Serve_api.compute q).res in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), stats =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, _ = ask ~deadline_s:0.05 c q in
                (match r1 with
                | Serve_api.Fuzz_report f ->
                  if f.Serve_api.f_partial then
                    Alcotest.(check bool)
                      "partial run completed a proper prefix" true
                      (f.Serve_api.f_completed < 4_000)
                | _ -> Alcotest.fail "fuzz query answered with a non-fuzz result");
                let r2, _ = ask c q in
                Alcotest.(check string)
                  "resumed final answer = uninterrupted answer" want
                  (Serve_api.render r2);
                let r3, cached3 = ask c q in
                Alcotest.(check bool) "final answer cached" true cached3;
                Alcotest.(check string)
                  "cached = reference" want (Serve_api.render r3)))
      in
      if stats.Serve_wire.st_prefix_stored > 0 then
        Alcotest.(check bool)
          "stored prefix was resumed" true
          (stats.Serve_wire.st_prefix_resumed > 0))

(* --- wire-level behaviour ------------------------------------------------ *)

let test_ping_stats_and_bad_query () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                (match Serve_client.ping c with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "ping: %s" msg);
                (* malformed queries come back as errors, not crashes *)
                (match
                   Serve_client.query c
                     (Serve_api.Verify
                        {
                          task = Serve_api.Candidate { name = "no-such" };
                          question = Serve_api.Solve;
                          inputs = [ 0; 1 ];
                          max_states;
                          reduce = `None;
                          substrate = "shm";
                        })
                 with
                | Error msg ->
                  Alcotest.(check bool)
                    "names the unknown candidate" true
                    (contains_sub ~sub:"no-such" msg)
                | Ok _ -> Alcotest.fail "unknown candidate accepted");
                (match
                   Serve_client.query c
                     (verify ~inputs:[ 1 ] (Serve_api.Dac { n = 3 }))
                 with
                | Error _ -> ()
                | Ok _ -> Alcotest.fail "wrong input arity accepted");
                match Serve_client.stats c with
                | Ok s ->
                  Alcotest.(check int)
                    "bad queries counted but not computed" 0
                    s.Serve_wire.st_computed
                | Error msg -> Alcotest.failf "stats: %s" msg))
      in
      ())

(* A query [compute] would refuse is answered with its plain error on
   the spot: never queued, never retried. *)
let test_refused_queries_never_queue () =
  let fuzz ~target ~trials =
    Serve_api.Fuzz { target; trials; procs = 3; ops = 3; seed = 42 }
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), stats =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, sub) ->
                    match Serve_client.query c q with
                    | Ok _ ->
                      Alcotest.failf "accepted %s" (Serve_api.canonical q)
                    | Error msg ->
                      Alcotest.(check bool)
                        ("plain message for " ^ Serve_api.canonical q)
                        true
                        (contains_sub ~sub msg
                        && not (contains_sub ~sub:"attempt" msg)))
                  [
                    ( verify ~inputs:[ 1; 0 ] (Serve_api.Dac { n = 3 }),
                      "expects 3 inputs" );
                    (fuzz ~target:"pac:x" ~trials:10, "pac:x");
                    (fuzz ~target:"pac:2" ~trials:0, "trials must be >= 1");
                  ]))
      in
      Alcotest.(check int) "nothing computed" 0 stats.Serve_wire.st_computed;
      Alcotest.(check int) "nothing queued" 0 stats.Serve_wire.st_queue_peak)

(* second daemon on the same socket must refuse to start *)
let test_socket_exclusion () =
  let dir = fresh_dir () in
  let dir2 = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf dir2)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            match
              Serve_daemon.run
                {
                  Serve_daemon.socket;
                  store_dir = dir2;
                  workers = 1;
                  default_deadline_s = None;
                  store_probe_s = 5.;
                  log = false;
                }
            with
            | exception Failure msg ->
              Alcotest.(check bool)
                "names the socket" true
                (contains_sub ~sub:"already" msg)
            | _ -> Alcotest.fail "second daemon bound the same socket")
      in
      ())

(* --- the CLI front-end --------------------------------------------------- *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let run fmt = Fmt.kstr Sys.command fmt

let test_cli_round_trip () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let q = Filename.quote in
  let socket = fresh_path ".sock" in
  let dir = fresh_dir () in
  let out1 = fresh_path ".out" and out2 = fresh_path ".out" in
  let started = ref false in
  Fun.protect
    ~finally:(fun () ->
      if !started then
        ignore
          (run "%s shutdown --socket %s --wait 2 >/dev/null 2>&1" (q exe)
             (q socket));
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out1; out2 ];
      rm_rf dir)
    (fun () ->
      Alcotest.(check int) "daemon starts in the background" 0
        (run "%s serve --socket %s --store %s --quiet >/dev/null 2>&1 &"
           (q exe) (q socket) (q dir));
      started := true;
      Alcotest.(check int) "cold query succeeds" 0
        (run "%s query dac:3 --socket %s --wait 10 > %s 2>/dev/null" (q exe)
           (q socket) (q out1));
      Alcotest.(check int) "hot query succeeds" 0
        (run "%s query dac:3 --socket %s > %s 2>/dev/null" (q exe) (q socket)
           (q out2));
      Alcotest.(check int) "cold and hot stdout byte-identical" 0
        (run "cmp -s %s %s" (q out1) (q out2));
      (* a failing candidate propagates the CLI-wide exit-code policy *)
      Alcotest.(check int) "failing candidate exits 1" 1
        (Sys.command
           (Fmt.str "%s query cand:flp-write-read --socket %s >/dev/null 2>&1"
              (q exe) (q socket)));
      Alcotest.(check int) "clean drain" 0
        (run "%s shutdown --socket %s >/dev/null 2>&1" (q exe) (q socket));
      started := false;
      Alcotest.(check int) "query after shutdown cannot connect" 3
        (Sys.command
           (Fmt.str "%s query dac:3 --socket %s >/dev/null 2>&1" (q exe)
              (q socket))))

(* The repaired fingerprint: cross-process stable under intern-id
   shifts, and every key-determining parameter separates both the
   structural fingerprint and the printed cache key. *)
let test_cli_fingerprint_pins_parameters () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let q = Filename.quote in
  let capture args =
    let f = fresh_path ".fp" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists f then Sys.remove f)
      (fun () ->
        Alcotest.(check int)
          ("fingerprint " ^ args) 0
          (run "%s fingerprint %s > %s 2>/dev/null" (q exe) args (q f));
        String.trim (read_file f))
  in
  let base = capture "-n 3" in
  let warmed = capture "-n 3 --intern-warmup 2000" in
  Alcotest.(check string) "intern-id shift changes nothing" base warmed;
  let sym = capture "-n 3 --reduce sym" in
  let sleep = capture "-n 3 --reduce sym+sleep" in
  let other_inputs = capture "-n 3 --inputs 0,0,0" in
  let distinct label a b =
    if a = b then Alcotest.failf "%s: fingerprints collide: %s" label a
  in
  distinct "none vs sym" base sym;
  distinct "sym vs sym+sleep" sym sleep;
  distinct "default vs 0,0,0 inputs" base other_inputs;
  (* the printed key= agrees with the in-process canonical digest:
     cross-process golden for the cache address *)
  let expect_key =
    Serve_api.key
      (Serve_api.Verify
         {
           task = Serve_api.Dac { n = 3 };
           question = Serve_api.Solve;
           inputs = [ 1; 0; 0 ];
           max_states = Lbsa_modelcheck.Graph.default_max_states;
           reduce = `Sym;
           substrate = "shm";
         })
  in
  Alcotest.(check bool)
    "key= field matches the in-process digest" true
    (contains_sub ~sub:("key=" ^ expect_key) sym)

(* --- suite --------------------------------------------------------------- *)

(* --- the task registry ---------------------------------------------------- *)

let registry_tasks =
  [
    Serve_api.Dac { n = 3 }; Serve_api.Consensus { m = 2 };
    Serve_api.Kset { m = 2; k = 2 }; Serve_api.Vc { n = 2 };
    Serve_api.Bcast { n = 2 };
  ]
  @ List.map (fun name -> Serve_api.Candidate { name }) Serve_api.candidate_names

let test_task_syntax_round_trips () =
  List.iter
    (fun t ->
      let label = Serve_api.task_label t in
      if Serve_api.task_of_string label <> Ok t then
        Alcotest.failf "%s does not parse back to itself" label)
    registry_tasks;
  List.iter
    (fun s ->
      match Serve_api.task_of_string s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error _ -> ())
    [ "dac:1"; "dac:x"; "cand:no-such"; "of:3:2"; "kset:2" ]

(* `lbsa check` and the daemon answer through the same code: the check
   of a task renders exactly what [compute] renders for the vector the
   check reports, under every question the check can ask. *)
let test_check_equals_compute () =
  List.iter
    (fun task ->
      List.iter
        (fun question ->
          let c =
            Serve_api.check ~question ~max_states ~reduce:`Sym task
          in
          let inputs =
            match c.Serve_api.answer with
            | Serve_api.Verdict v -> v.Serve_api.v_inputs
            | _ -> Serve_api.default_inputs task
          in
          let served =
            (Serve_api.compute (verify ~question ~reduce:`Sym ~inputs task))
              .Serve_api.res
          in
          Alcotest.(check string)
            (Fmt.str "%s %s" (Serve_api.task_label task)
               (Serve_api.question_label question))
            (Serve_api.render served)
            (Serve_api.render c.Serve_api.answer))
        [ Serve_api.Solve; Serve_api.Live ])
    registry_tasks

let () =
  Alcotest.run "serve"
    [
      ( "keys",
        [
          Alcotest.test_case "canonical golden pin" `Quick test_canonical_golden;
          Alcotest.test_case "parameters separate keys" `Quick
            test_key_separation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "task syntax round-trips" `Quick
            test_task_syntax_round_trips;
          Alcotest.test_case "check equals compute" `Quick
            test_check_equals_compute;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "truncation detected" `Quick test_store_truncation;
          Alcotest.test_case "payload flip detected" `Quick
            test_store_payload_flip;
          Alcotest.test_case "checksum flip detected" `Quick
            test_store_checksum_flip;
          Alcotest.test_case "garbage refused" `Quick test_store_garbage;
          Alcotest.test_case "empty file refused" `Quick test_store_empty_file;
          Alcotest.test_case "digest collision refused" `Quick
            test_store_collision_refused;
          Alcotest.test_case "oversized payload refused" `Quick
            test_store_oversized_refused;
          Alcotest.test_case "truncated explore round-trips as a summary"
            `Quick test_truncated_explore_roundtrips_as_summary;
        ] );
      ( "cache identity",
        [
          Alcotest.test_case "registry x reduce x question matrix" `Slow
            test_cache_identity_matrix;
          Alcotest.test_case "liveness answers cache byte-identically" `Quick
            test_live_cache_identity;
          Alcotest.test_case "daemon recovers from corrupt store" `Quick
            test_daemon_recovers_from_corrupt_store;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "single-flight under concurrent clients" `Slow
            test_concurrent_single_flight;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign cached" `Quick
            test_fuzz_caches_clean_run;
          Alcotest.test_case "prefix resumption" `Slow test_fuzz_prefix_resume;
        ] );
      ( "wire",
        [
          Alcotest.test_case "ping, stats, malformed queries" `Quick
            test_ping_stats_and_bad_query;
          Alcotest.test_case "refused queries never queue" `Quick
            test_refused_queries_never_queue;
          Alcotest.test_case "socket exclusion" `Quick test_socket_exclusion;
        ] );
      ( "cli",
        [
          Alcotest.test_case "serve/query/shutdown round trip" `Slow
            test_cli_round_trip;
          Alcotest.test_case "fingerprint pins its parameters" `Slow
            test_cli_fingerprint_pins_parameters;
        ] );
    ]
