(* Measurement helper behind perfbench/run.py.

   Modes (first argument):

   - [serve-mix]: drive a real [lbsa serve] subprocess through the
     {!Serve_client} library — one closed-loop caller on one connection —
     over a seed-drawn pool of distinct queries, in three phases per
     round: cold (every key computed once), hot (memo hits drawn by seed
     from the same keys) and store (a daemon restart on the same store,
     every key read once through the store tier).  Every answer is
     checked against the in-process {!Serve_api.compute} replay of the
     cold set.  With [--trace 1] that replay and the rounds after the
     first (which runs untraced) record spans, and a {!Serve_store}
     replay follows.

   - [check-dac5]: one traced in-process pass of the [lbsa check dac -n 5]
     sweep — {!Solvability.for_all_inputs}, one {!Solvability.check_dac}
     span per input vector, and the explorer child span taken from the
     returned {!Cgraph.stats}.

   - [explore-of41]: one traced in-process {!Cgraph.build} of the
     [lbsa explore of:4:1] graph, with {!Value.intern_stats} and
     [Gc.quick_stat] deltas around it.

   Each mode prints one JSON object on its last stdout line:
   [{"attempted": n, "failed": n, "notes": [...], "values": {...}}].
   Spans are kept in memory and written as JSON lines to [--spans] at
   the end. *)

open Lbsa

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- spans ------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  tag : string;
  start : float;
  mutable stop : float;
}

let spans = ref []
let n_spans = ref 0
let t_origin = now ()

let record ?(parent = -1) ?(tag = "") name start stop =
  let id = !n_spans in
  incr n_spans;
  spans := { id; parent; name; tag; start; stop } :: !spans;
  id

(* A span whose end is not known yet; [close] stamps it. *)
let open_span ?parent ?tag name = record ?parent ?tag name (now ()) nan

let close id =
  let s = List.find (fun s -> s.id = id) !spans in
  s.stop <- now ();
  s.stop -. s.start

let write_spans ~run_id path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\": %s, \"id\": %d, \"parent\": %d, \"name\": %s, \"tag\": \
         %s, \"start_s\": %.9f, \"end_s\": %.9f}\n"
        (json_string run_id) s.id s.parent (json_string s.name)
        (json_string s.tag) (s.start -. t_origin) (s.stop -. t_origin))
    (List.rev !spans);
  close_out oc

(* --- statistics and output --------------------------------------------- *)

(* Linear interpolation between closest ranks, like numpy's default. *)
let percentile xs p =
  match Array.length xs with
  | 0 -> 0.
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    let r = p *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* The daemon stamps its [wall_us] with a float-seconds wall clock,
   quantised to about 0.24 us at the current epoch, so its percentiles
   interpolate within the quantum the way a median of grouped data
   does; a plain order statistic would read the same bin on every run. *)
let grouped_percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then percentile a p
  else begin
    let v = a.(min (n - 1) (truncate (p *. float_of_int n))) in
    let below = ref 0 and at = ref 0 and w = ref infinity in
    Array.iteri
      (fun i x ->
        if x < v then incr below else if x = v then incr at;
        if i > 0 && x > a.(i - 1) then w := Float.min !w (x -. a.(i - 1)))
      a;
    let w = if !w = infinity then 0. else !w in
    v -. (w /. 2.)
    +. (w *. ((p *. float_of_int n) -. float_of_int !below) /. float_of_int !at)
  end

let sum = Array.fold_left ( +. ) 0.

let attempted = ref 0
let failed = ref 0
let notes = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        if List.length !notes < 20 then notes := msg :: !notes
      end)
    fmt

(* A non-finite value only arises next to a failed check, which already
   marks the run incorrect; JSON has no spelling for it. *)
let emit values =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"attempted\": %d, \"failed\": %d, \"notes\": [%s], \
                      \"values\": {"
    !attempted !failed
    (String.concat ", " (List.rev_map json_string !notes));
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "%s%s: %.17g" (if i = 0 then "" else ", ")
        (json_string k) (if Float.is_finite v then v else 0.))
    values;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* --- the serve-mix query pool ------------------------------------------ *)

(* The seed draws the pool's input vectors only within symmetry orbits
   of each task — dac permutes the processes other than p0, consensus
   permutes all of them, k-set agreement and the binary candidates rename
   input values — so every seed asks the same number of keys from each
   (task, question, reduce mode, orbit) cell, and the cold costs are a
   property of the program, not of the draw.  The seed also picks the
   fuzz seeds, the query order and the hot draws.  The pool includes
   failing candidates, livelocks (dac:3 and vc under the live question)
   and clean fuzz campaigns. *)
let modes = [ `None; `Sym; `Sym_sleep ]

let verify ~question task reduce inputs =
  Serve_api.Verify
    {
      task;
      question;
      inputs;
      max_states = Cgraph.default_max_states;
      reduce;
      substrate = Serve_api.default_substrate task;
    }

let rec binary n =
  if n = 0 then [ [] ]
  else List.concat_map (fun v -> [ 0 :: v; 1 :: v ]) (binary (n - 1))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (List.cons x) (permutations (List.filter (( <> ) x) l)))
      l

let ones = List.fold_left ( + ) 0

let pool seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  (* up to [k] vectors from each orbit class, under each reduce mode *)
  let cells k ?(question = Serve_api.Solve) ?(orbit = fun _ -> 0) task
      vectors =
    let classes = List.sort_uniq compare (List.map orbit vectors) in
    List.concat_map
      (fun reduce ->
        List.concat_map
          (fun c ->
            let a = Array.of_list (List.filter (fun v -> orbit v = c) vectors) in
            shuffle rng a;
            List.map (verify ~question task reduce)
              (Array.to_list (Array.sub a 0 (min k (Array.length a)))))
          classes)
      modes
  in
  let dac_orbit v = (100 * List.hd v) + ones (List.tl v) in
  let dac ?question k n =
    cells k ?question ~orbit:dac_orbit (Serve_api.Dac { n }) (binary n)
  in
  let consensus m =
    let task = Serve_api.Consensus { m } in
    cells 1 ~orbit:ones task (binary m)
    @ cells 1 ~question:Serve_api.Valence ~orbit:ones task (binary m)
  in
  (* the default mixed-input vector or its value-swapped twin *)
  let candidate name =
    let task = Serve_api.Candidate { name } in
    let v = Serve_api.default_inputs task in
    cells 1 task [ v; List.map (fun x -> 1 - x) v ]
  in
  let mp_live task =
    cells 1 ~question:Serve_api.Live task [ Serve_api.default_inputs task ]
  in
  let fuzz i =
    Serve_api.Fuzz
      {
        target = List.nth [ "pac:2"; "cons:2"; "2sa"; "queue" ] (i mod 4);
        trials = 50;
        procs = 2 + (i / 4 mod 2);
        ops = 2 + (i / 8 mod 2);
        seed = Random.State.bits rng;
      }
  in
  Array.of_list
    (List.concat
       [
         dac 2 4;
         dac 2 ~question:Serve_api.Valence 4;
         dac 2 3;
         dac 1 ~question:Serve_api.Valence 3;
         dac 1 ~question:Serve_api.Live 3;
         consensus 2;
         consensus 3;
         cells 2 (Serve_api.Kset { m = 2; k = 2 }) (permutations [ 0; 1; 2; 3 ]);
         List.concat_map candidate Serve_api.candidate_names;
         List.concat_map mp_live
           [ Serve_api.Vc { n = 2 }; Serve_api.Vc { n = 3 };
             Serve_api.Bcast { n = 3 } ];
         List.init 20 fuzz;
       ])

let kind = function
  | Serve_api.Fuzz _ -> "fuzz"
  | Serve_api.Verify { question = Serve_api.Solve; _ } -> "solve"
  | Serve_api.Verify { question = Serve_api.Valence; _ } -> "valence"
  | Serve_api.Verify { question = Serve_api.Live; _ } -> "live"

(* --- the daemon subprocess --------------------------------------------- *)

type daemon = { pid : int; client : Serve_client.t; ready_s : float }

let proc_status_kb pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        let fl = String.length field in
        if String.length line > fl && String.sub line 0 fl = field then
          Scanf.sscanf (String.sub line fl (String.length line - fl)) " %d"
            float_of_int
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let kill_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Spawn [lbsa serve] at its defaults (socket and store paths are
   deployment settings) and time launch until the first answered ping. *)
let start_daemon ~lbsa ~socket ~store =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process lbsa
      [| lbsa; "serve"; "--socket"; socket; "--store"; store |]
      null null null
  in
  Unix.close null;
  let rec connect () =
    match Serve_client.connect ~socket () with
    | Ok c -> c
    | Error e ->
      if now () -. t0 > 30. then begin
        kill_daemon pid;
        failwith ("daemon never answered: " ^ e)
      end;
      Unix.sleepf 0.0005;
      connect ()
  in
  let client = connect () in
  match Serve_client.ping client with
  | Ok () -> { pid; client; ready_s = now () -. t0 }
  | Error e ->
    kill_daemon pid;
    failwith ("daemon ping failed: " ^ e)

let stop_daemon d =
  let hwm_kb = proc_status_kb d.pid "VmHWM:" in
  (match Serve_client.shutdown d.client with
  | Ok _ -> check true "shutdown"
  | Error e -> check false "daemon shutdown failed: %s" e);
  Serve_client.close d.client;
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> check true "daemon exit"
  | _ -> check false "daemon exited abnormally"
  | exception Unix.Unix_error _ -> check false "daemon vanished");
  hwm_kb /. 1024.

let daemon_stats d =
  match Serve_client.stats d.client with
  | Ok s -> s
  | Error e -> failwith ("daemon stats failed: " ^ e)

(* --- serve-mix --------------------------------------------------------- *)

let setup_cycles = 21

(* Rounds repeat until the measuring time is up, so cold queries — whose
   latency includes the store's file commits — are sampled across the
   whole run.  Query spans stop after [span_cap] to bound the trace file;
   every query still feeds the metrics. *)
let hot_queries = 30_000
let span_cap = 200_000

type round = {
  cold_ms : float array;
  cold_wall_us : float array;  (** daemon-reported *)
  hot_us : float array;
  hot_wall_us : float array;
  hot_s : float;  (** wall time of the hot phase *)
  store_us : float array;
  store_wall_us : float array;
  all_us : float array;  (** every answer, all three phases *)
  peak_rss_mb : float;
  rss_after_cold_mb : float;
  rss_after_hot_mb : float;
  d_cold : Serve_wire.stats;
  d_hot : Serve_wire.stats;
  d_store : Serve_wire.stats;
  phases_s : float;  (** cold + hot + store wall time *)
  store_dir : string;
}

(* Per-phase counter deltas; [st_queue_peak] is a high-water mark, so
   it is kept as read. *)
let delta (b : Serve_wire.stats) (a : Serve_wire.stats) =
  {
    a with
    Serve_wire.st_queries = a.Serve_wire.st_queries - b.Serve_wire.st_queries;
    st_hits_mem = a.st_hits_mem - b.st_hits_mem;
    st_hits_store = a.st_hits_store - b.st_hits_store;
    st_misses = a.st_misses - b.st_misses;
    st_computed = a.st_computed - b.st_computed;
    st_joined = a.st_joined - b.st_joined;
    st_corrupt = a.st_corrupt - b.st_corrupt;
    st_degraded = a.st_degraded - b.st_degraded;
  }

let serve_round ~lbsa ~work ~seed ~round_ix ~traced ~(expect : string array)
    (pool : Serve_api.query array) =
  let dir = Filename.concat work (Printf.sprintf "r%d" round_ix) in
  Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" in
  let n = Array.length pool in
  let root = if traced then open_span "serve-mix.round" else -1 in
  let ask d ~phase q =
    let t0 = now () in
    let r = Serve_client.query d.client q in
    let t1 = now () in
    if traced && !n_spans < span_cap then
      ignore (record ~parent:root ~tag:phase "Serve_client.query" t0 t1);
    match r with
    | Ok (res, cached, wall_us) -> ((t1 -. t0) *. 1e6, Some (res, cached, wall_us))
    | Error e ->
      check false "%s query error: %s" phase e;
      ((t1 -. t0) *. 1e6, None)
  in
  let answer_ok ~phase ~want_cached i = function
    | Some (res, cached, _) ->
      check (cached = want_cached) "%s: key %d cached=%b" phase i cached;
      check (Serve_api.render res = expect.(i)) "%s: key %d answer differs"
        phase i
    | None -> ()
  in
  let wall = function Some (_, _, w) -> w | None -> nan in
  let d1 = start_daemon ~lbsa ~socket:(Filename.concat dir "a.sock") ~store in
  let s0 = daemon_stats d1 in
  let p0 = now () in
  (* cold: every key once, in pool order *)
  let cold_ms = Array.make n 0. and cold_wall = Array.make n 0. in
  Array.iteri
    (fun i q ->
      let us, r = ask d1 ~phase:"cold" q in
      answer_ok ~phase:"cold" ~want_cached:false i r;
      cold_ms.(i) <- us /. 1000.;
      cold_wall.(i) <- wall r)
    pool;
  let s1 = daemon_stats d1 in
  let rss_after_cold_mb = proc_status_kb d1.pid "VmRSS:" /. 1024. in
  (* hot: memo hits drawn by seed from the same keys *)
  let rng = Random.State.make [| 0x407; seed; round_ix |] in
  let hot_us = Array.make hot_queries 0. and hot_wall = Array.make hot_queries 0. in
  let h0 = now () in
  for j = 0 to hot_queries - 1 do
    let i = Random.State.int rng n in
    let us, r = ask d1 ~phase:"hot" pool.(i) in
    answer_ok ~phase:"hot" ~want_cached:true i r;
    hot_us.(j) <- us;
    hot_wall.(j) <- wall r
  done;
  let hot_s = now () -. h0 in
  let s2 = daemon_stats d1 in
  let rss_after_hot_mb = proc_status_kb d1.pid "VmRSS:" /. 1024. in
  let p2 = now () in
  let hwm1 = stop_daemon d1 in
  (* store: a restarted daemon on the same store, every key read once *)
  let d2 = start_daemon ~lbsa ~socket:(Filename.concat dir "b.sock") ~store in
  let order = Array.init n Fun.id in
  shuffle rng order;
  let s3 = daemon_stats d2 in
  let p3 = now () in
  let store_us = Array.make n 0. and store_wall = Array.make n 0. in
  Array.iteri
    (fun k i ->
      let us, r = ask d2 ~phase:"store" pool.(i) in
      answer_ok ~phase:"store" ~want_cached:true i r;
      store_us.(k) <- us;
      store_wall.(k) <- wall r)
    order;
  let p4 = now () in
  let s4 = daemon_stats d2 in
  let hwm2 = stop_daemon d2 in
  if traced then ignore (close root);
  let d_store = delta s3 s4 in
  check (d_store.Serve_wire.st_hits_store = n)
    "store phase: %d of %d keys read from the store" d_store.st_hits_store n;
  check (d_store.st_misses = 0) "store phase: %d misses" d_store.st_misses;
  {
    cold_ms;
    cold_wall_us = cold_wall;
    hot_us;
    hot_wall_us = hot_wall;
    hot_s;
    store_us;
    store_wall_us = store_wall;
    all_us =
      Array.concat [ Array.map (fun ms -> ms *. 1000.) cold_ms; hot_us; store_us ];
    peak_rss_mb = Float.max hwm1 hwm2;
    rss_after_cold_mb;
    rss_after_hot_mb;
    d_cold = delta s0 s1;
    d_hot = delta s1 s2;
    d_store;
    phases_s = p2 -. p0 +. (p4 -. p3);
    store_dir = store;
  }

(* In-process replay of the cold set: the reference every daemon answer
   is checked against, and the Api layer's compute times. *)
let replay ~traced pool =
  Array.map
    (fun q ->
      let t0 = now () in
      let c = Serve_api.compute q in
      let t1 = now () in
      if traced then ignore (record ~tag:(kind q) "Serve_api.compute" t0 t1);
      (Serve_api.render c.Serve_api.res, (t1 -. t0) *. 1000.))
    pool

(* Direct Store.put / Store.get of the workload's own entries (read back
   from the daemon's store) in a scratch store. *)
let store_replay ~daemon_store ~scratch pool =
  let src = Serve_store.open_ ~dir:daemon_store in
  let dst = Serve_store.open_ ~dir:scratch in
  let puts = ref [] and gets = ref [] in
  Array.iter
    (fun q ->
      let key = Serve_api.key q and canonical = Serve_api.canonical q in
      match Serve_store.get src ~key ~canonical with
      | None -> check false "store replay: entry %s missing" key
      | Some data ->
        let t0 = now () in
        let put = Serve_store.put dst ~key ~canonical ~data in
        let t1 = now () in
        let got = Serve_store.get dst ~key ~canonical in
        let t2 = now () in
        ignore (record ~tag:"put" "Serve_store.put" t0 t1);
        ignore (record ~tag:"get" "Serve_store.get" t1 t2);
        check (put = Ok ()) "store replay: put %s failed" key;
        check (got = Some data) "store replay: get %s differs" key;
        puts := (t1 -. t0) *. 1e6 :: !puts;
        gets := (t2 -. t1) *. 1e6 :: !gets)
    pool;
  (Array.of_list !puts, Array.of_list !gets)

let serve_mix ~lbsa ~work ~seed ~seconds ~traced =
  (* set-up: launch until the first answered ping, on an empty store *)
  let setups =
    Array.init setup_cycles (fun i ->
        let dir = Filename.concat work (Printf.sprintf "s%d" i) in
        Unix.mkdir dir 0o755;
        let d =
          start_daemon ~lbsa
            ~socket:(Filename.concat dir "d.sock")
            ~store:(Filename.concat dir "store")
        in
        ignore (stop_daemon d);
        d.ready_s)
  in
  let pool = pool seed in
  let reference = replay ~traced pool in
  let expect = Array.map fst reference in
  (* with --trace 1 the first round runs untraced, for comparison *)
  let t_start = now () in
  let untraced = ref None and rounds = ref [] and k = ref 0 in
  while !rounds = [] || now () -. t_start < seconds do
    let trace_this = traced && !k > 0 in
    let r =
      serve_round ~lbsa ~work ~seed ~round_ix:!k ~traced:trace_this ~expect pool
    in
    if traced && !k = 0 then untraced := Some r else rounds := r :: !rounds;
    incr k
  done;
  let untraced = !untraced and rounds = Array.of_list (List.rev !rounds) in
  let pooled f = Array.concat (Array.to_list (Array.map f rounds)) in
  let med f = median (Array.map f rounds) in
  let e2e =
    [
      ("setup_s", median setups);
      ("cold_p50_ms", percentile (pooled (fun r -> r.cold_ms)) 0.5);
      ("answer_p50_us", percentile (pooled (fun r -> r.all_us)) 0.5);
      ("peak_rss_mb", med (fun r -> r.peak_rss_mb));
      (* serve phases, for the summary and the serve.* per-layer names *)
      ("hot_p50_us", percentile (pooled (fun r -> r.hot_us)) 0.5);
      ("hot_p99_us", percentile (pooled (fun r -> r.hot_us)) 0.99);
      ("hot_qps", med (fun r -> float_of_int hot_queries /. r.hot_s));
      ("store_p50_us", percentile (pooled (fun r -> r.store_us)) 0.5);
      ("store_p90_us", percentile (pooled (fun r -> r.store_us)) 0.9);
      ("cold_p90_ms", percentile (pooled (fun r -> r.cold_ms)) 0.9);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r0 = rounds.(0) in
      let transport answers walls =
        Array.mapi (fun i us -> us -. walls.(i)) answers
      in
      let hot_tr = pooled (fun r -> transport r.hot_us r.hot_wall_us) in
      let untraced_s =
        match untraced with Some u -> u.phases_s | None -> nan
      in
      let scratch = Filename.concat work "scratch-store" in
      let puts, gets = store_replay ~daemon_store:r0.store_dir ~scratch pool in
      let compute_p50 k =
        median
          (Array.of_list
             (List.filteri (fun i _ -> kind pool.(i) = k)
                (Array.to_list (Array.map snd reference))))
      in
      let f = float_of_int in
      [
        ("client.transport_us_p50", percentile hot_tr 0.5);
        ("client.transport_us_p99", percentile hot_tr 0.99);
        ("daemon.hot_us_p50", grouped_percentile (pooled (fun r -> r.hot_wall_us)) 0.5);
        ( "daemon.store_us_p50",
          grouped_percentile (pooled (fun r -> r.store_wall_us)) 0.5 );
        ( "daemon.cold_ms_p50",
          percentile (pooled (fun r -> r.cold_wall_us)) 0.5 /. 1000. );
        ("daemon.hits_mem", f r0.d_hot.Serve_wire.st_hits_mem);
        ("daemon.hits_store", f r0.d_store.Serve_wire.st_hits_store);
        ("daemon.misses", f r0.d_cold.Serve_wire.st_misses);
        ("daemon.computed", f r0.d_cold.Serve_wire.st_computed);
        ("daemon.joined", f r0.d_cold.Serve_wire.st_joined);
        ("daemon.queue_peak", f r0.d_hot.Serve_wire.st_queue_peak);
        ( "daemon.corrupt",
          f (r0.d_cold.Serve_wire.st_corrupt + r0.d_hot.st_corrupt
             + r0.d_store.st_corrupt) );
        ( "daemon.degraded",
          f (r0.d_cold.Serve_wire.st_degraded + r0.d_hot.st_degraded
             + r0.d_store.st_degraded) );
        ("daemon.rss_mb_after_cold", med (fun r -> r.rss_after_cold_mb));
        ("daemon.rss_mb_after_hot", med (fun r -> r.rss_after_hot_mb));
        ("store.get_us_p50", median gets);
        ("store.put_us_p50", median puts);
        ("api.compute_ms_p50.solve", compute_p50 "solve");
        ("api.compute_ms_p50.valence", compute_p50 "valence");
        ("api.compute_ms_p50.live", compute_p50 "live");
        ("api.compute_ms_p50.fuzz", compute_p50 "fuzz");
        ("trace.total_s", med (fun r -> r.phases_s));
        ("trace.untraced_s", untraced_s);
      ]
    end
  in
  emit (e2e @ layers)

(* --- check-dac5, traced in process --------------------------------------- *)

let gc_and_intern f =
  Gc.compact ();
  let g0 = Gc.quick_stat () and v0 = Value.intern_stats () in
  let x = f () in
  let g1 = Gc.quick_stat () and v1 = Value.intern_stats () in
  ( x,
    [
      ("value.intern_size", float_of_int v1.Value.size);
      ("value.intern_hits", float_of_int (v1.Value.hits - v0.Value.hits));
      ("value.intern_misses", float_of_int (v1.Value.misses - v0.Value.misses));
      ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ("gc.top_heap_mb", mb_of_words (float_of_int g1.Gc.top_heap_words));
    ] )

let graph_counters (ss : Cgraph.stats list) =
  let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 ss) in
  [
    ("graph.build_s", List.fold_left (fun a s -> a +. s.Cgraph.wall_s) 0. ss);
    ("graph.states", total (fun s -> s.Cgraph.states));
    ("graph.edges", total (fun s -> s.Cgraph.edges));
    ("graph.dedup_hits", total (fun s -> s.Cgraph.dedup_hits));
    ("graph.probes", total (fun s -> s.Cgraph.probe.Ctbl.probes));
    ( "graph.probe_equal_confirms",
      total (fun s -> s.Cgraph.probe.Ctbl.equal_confirms) );
  ]

let dac5_family_states = 153_920

let check_dac5 () =
  let n = 5 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let vectors = ref [] in
  let (verdict, family_s), gc =
    gc_and_intern (fun () ->
        let family = open_span "Solvability.for_all_inputs" in
        let v =
          Solvability.for_all_inputs
            (fun inputs ->
              let a = now () in
              let v = Solvability.check_dac ~machine ~specs ~inputs () in
              let b = now () in
              let vid = record ~parent:family "Solvability.check_dac" a b in
              (match v.Solvability.stats with
              | Some s ->
                ignore
                  (record ~parent:vid "Cgraph.build" a (a +. s.Cgraph.wall_s));
                vectors := (b -. a, s) :: !vectors
              | None -> check false "check_dac returned no graph stats");
              v)
            (Dac.binary_inputs n)
        in
        (v, close family))
  in
  let vectors = List.rev !vectors in
  let stats = List.map snd vectors in
  let spans = Array.of_list (List.map fst vectors) in
  let build_s = List.fold_left (fun a s -> a +. s.Cgraph.wall_s) 0. stats in
  let graph = graph_counters stats in
  check verdict.Solvability.ok "check dac -n 5: verdict is not OK";
  check (List.length vectors = 32) "check dac -n 5: %d vectors checked"
    (List.length vectors);
  check (List.assoc "graph.states" graph = float_of_int dac5_family_states)
    "check dac -n 5: %g states, expected %d" (List.assoc "graph.states" graph)
    dac5_family_states;
  emit
    (graph @ gc
    @ [
        ("solvability.self_s", sum spans -. build_s);
        ("solvability.vector_p50_ms", median spans *. 1000.);
        ("solvability.vector_max_ms", percentile spans 1. *. 1000.);
        ("solvability.sweep_overhead_s", family_s -. sum spans);
        ("trace.total_s", family_s);
      ])

(* --- explore-of41, traced in process ------------------------------------- *)

let of41_states = 415_544
let of41_edges = 1_637_706

let explore_of41 () =
  let n = 4 and r = 1 in
  let graph, gc =
    gc_and_intern (fun () ->
        let t0 = now () in
        let g =
          Cgraph.build
            ~machine:(Obstruction_free.machine_spin ~n ~max_rounds:r)
            ~specs:(Obstruction_free.specs ~n ~max_rounds:r)
            ~inputs:(Array.init n (fun pid -> Value.int (pid mod 2)))
            ()
        in
        let t1 = now () in
        ignore (record "Cgraph.build" t0 t1);
        (g, t1 -. t0))
  in
  let g, span = graph in
  let s = Cgraph.stats g in
  check (g.Cgraph.stop = Supervisor.Done) "explore of:4:1: outcome is not done";
  check (s.Cgraph.states = of41_states) "explore of:4:1: %d states"
    s.Cgraph.states;
  check (s.Cgraph.edges = of41_edges) "explore of:4:1: %d edges" s.Cgraph.edges;
  emit (graph_counters [ s ] @ gc @ [ ("trace.total_s", span) ])

(* --- entry point ----------------------------------------------------------- *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let lbsa = ref "" and work = ref "" and seed = ref 0 and seconds = ref 1.
  and trace = ref 0 and spans_file = ref "" in
  let specs =
    [
      ("--lbsa", Arg.Set_string lbsa, "PATH the lbsa executable");
      ("--work", Arg.Set_string work, "DIR scratch directory (must exist)");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 record spans");
      ("--spans", Arg.Set_string spans_file, "FILE span output (JSON lines)");
    ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe (serve-mix|check-dac5|explore-of41) [options]";
  (match mode with
  | "serve-mix" ->
    serve_mix ~lbsa:!lbsa ~work:!work ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1)
  | "check-dac5" -> check_dac5 ()
  | "explore-of41" -> explore_of41 ()
  | m -> failwith ("unknown mode " ^ m));
  if !spans_file <> "" then
    write_spans ~run_id:(Printf.sprintf "%s-%d-%d" mode !seed (Unix.getpid ()))
      !spans_file
