open Lbsa_spec
open Lbsa_objects
open Lbsa_implement

(* Fuzz targets: every registry object gets an [Obj_spec]-aware operation
   generator (spec-level fuzzing), and each construction in
   lib/implement gets a workload generator respecting its interface
   contract (port bounds, single-writer components, slot budgets). *)

module Prng = Lbsa_util.Prng

let small_int prng = Value.int (Prng.int prng 4)

(* A size field of a description; a non-integer is [bad] syntax. *)
let int_field ~bad v =
  match int_of_string_opt v with Some i -> i | None -> bad ()

let bad_spec desc () =
  invalid_arg (Fmt.str "Fuzz targets: cannot parse spec %S" desc)

(* --- spec-level targets ------------------------------------------------ *)

type spec_target = {
  desc : string;  (* Registry.of_string syntax; the reproduction handle *)
  spec : Obj_spec.t;
  gen_op : pid:int -> Prng.t -> Op.t;
  procs : int;  (* natural client count for this instantiation *)
}

let pac_family_op ~ports prng =
  match Prng.int prng 3 with
  | 0 -> `Propose_c
  | 1 -> `Propose_p (1 + Prng.int prng ports)
  | _ -> `Decide_p (1 + Prng.int prng ports)

let rec spec_target desc =
  match String.split_on_char ':' desc with
  | [ "mpnet"; n; t ] ->
    (* The mp substrate's network object (lib/runtime Substrate) as a
       plain linearizable spec: sends, guarded deliveries, timeouts and
       delays under the fuzzer's oracle.  Not a registry object — the
       alphabet is per-instantiation — so it is built directly and kept
       out of [all_specs]. *)
    let int = int_field ~bad:(bad_spec desc) in
    let n = int n and t = int t in
    if n < 1 || t < 1 then
      invalid_arg "Fuzz targets: mpnet:<n>:<t> needs n >= 1 and t >= 1";
    let types = List.init t (Fmt.str "m%d") in
    let spec = Lbsa_runtime.Substrate.network_spec ~n ~types () in
    let gen_op ~pid prng =
      if Prng.bool prng then
        Lbsa_runtime.Substrate.send (List.nth types (Prng.int prng t))
      else
        let listen = List.filter (fun _ -> Prng.bool prng) types in
        let listen =
          if listen = [] then [ List.nth types (Prng.int prng t) ] else listen
        in
        Lbsa_runtime.Substrate.recv ~pid ~timeout:(Prng.bool prng) listen
    in
    { desc; spec; gen_op; procs = max 1 (min n 3) }
  | _ -> registry_spec_target desc

and registry_spec_target desc =
  let spec = Registry.of_string desc in
  let int = int_field ~bad:(bad_spec desc) in
  let gen_op, procs =
    match String.split_on_char ':' desc with
    | [ "reg" ] | [ "reg"; _ ] ->
      ( (fun ~pid:_ prng ->
          if Prng.bool prng then Register.write (small_int prng)
          else Register.read),
        3 )
    | [ "cons"; _ ] ->
      ((fun ~pid:_ prng -> Consensus_obj.propose (small_int prng)), 3)
    | [ "2sa" ] -> ((fun ~pid:_ prng -> Sa2.propose (small_int prng)), 3)
    | [ "nksa"; n; _ ] ->
      ( (fun ~pid:_ prng -> Nk_sa.propose (small_int prng)),
        max 2 (min (int n) 4) )
    | [ "pac"; n ] ->
      let n = int n in
      ( (fun ~pid:_ prng ->
          let i = 1 + Prng.int prng n in
          if Prng.bool prng then Pac.propose (small_int prng) i
          else Pac.decide i),
        3 )
    | [ "pacnm"; n; _ ] ->
      let n = int n in
      ( (fun ~pid:_ prng ->
          match pac_family_op ~ports:n prng with
          | `Propose_c -> Pac_nm.propose_c (small_int prng)
          | `Propose_p i -> Pac_nm.propose_p (small_int prng) i
          | `Decide_p i -> Pac_nm.decide_p i),
        3 )
    | [ "on"; n ] ->
      (* O_n = (n+1, n)-PAC, so its PAC facet has n+1 ports. *)
      let ports = int n + 1 in
      ( (fun ~pid:_ prng ->
          match pac_family_op ~ports prng with
          | `Propose_c -> O_n.propose_c (small_int prng)
          | `Propose_p i -> O_n.propose_p (small_int prng) i
          | `Decide_p i -> O_n.decide_p i),
        3 )
    | [ "oprime"; _; max_k ] ->
      let max_k = int max_k in
      ( (fun ~pid:_ prng ->
          O_prime.propose (small_int prng) (1 + Prng.int prng max_k)),
        3 )
    | [ "tas" ] ->
      ( (fun ~pid:_ prng ->
          match Prng.int prng 3 with
          | 0 -> Classic.Test_and_set.test_and_set
          | 1 -> Classic.Test_and_set.reset
          | _ -> Classic.Test_and_set.read),
        3 )
    | [ "faa" ] ->
      ( (fun ~pid:_ prng ->
          if Prng.bool prng then
            Classic.Fetch_and_add.fetch_and_add (Prng.int prng 4)
          else Classic.Fetch_and_add.read),
        3 )
    | [ "swap" ] ->
      ((fun ~pid:_ prng -> Classic.Swap.swap (small_int prng)), 3)
    | [ "queue" ] ->
      ( (fun ~pid:_ prng ->
          if Prng.bool prng then Classic.Queue_obj.enqueue (small_int prng)
          else Classic.Queue_obj.dequeue),
        3 )
    | [ "cas" ] ->
      ( (fun ~pid:_ prng ->
          if Prng.int prng 3 = 2 then Classic.Compare_and_swap.read
          else
            let expected =
              if Prng.bool prng then Value.nil else small_int prng
            in
            Classic.Compare_and_swap.compare_and_swap ~expected
              ~desired:(small_int prng)),
        3 )
    | [ "sticky" ] ->
      ( (fun ~pid:_ prng ->
          if Prng.bool prng then Classic.Sticky.write (small_int prng)
          else Classic.Sticky.read),
        3 )
    | [ "snapshot"; m ] ->
      let m = int m in
      ( (fun ~pid prng ->
          if Prng.bool prng then Classic.Snapshot.update (pid mod m) (small_int prng)
          else Classic.Snapshot.scan),
        max 2 (min m 3) )
    | _ -> invalid_arg (Fmt.str "Fuzz targets: no op generator for %S" desc)
  in
  { desc; spec; gen_op; procs }

(* One concrete instantiation per Registry.known row; a test pins this
   list against the registry so a new object cannot dodge the fuzzer. *)
let all_specs () =
  List.map spec_target
    [
      "reg"; "cons:2"; "2sa"; "nksa:3:2"; "pac:2"; "pacnm:2:2"; "on:2";
      "oprime:2:3"; "tas"; "faa"; "swap"; "queue"; "cas"; "sticky";
      "snapshot:3";
    ]

let spec_workloads (t : spec_target) ~procs ~ops_per_proc prng =
  Array.init procs (fun pid ->
      List.init (1 + Prng.int prng (max 1 ops_per_proc)) (fun _ ->
          t.gen_op ~pid prng))

(* --- implementation-level targets -------------------------------------- *)

type impl_target = {
  idesc : string;
  impl : Implementation.t;
  iprocs : int;
  gen_workloads : ops_per_proc:int -> Prng.t -> Op.t list array;
}

(* Uniform workloads from a spec-style op generator. *)
let workloads_of_gen ~procs ~gen_op ~ops_per_proc prng =
  Array.init procs (fun pid ->
      List.init (1 + Prng.int prng (max 1 ops_per_proc)) (fun _ ->
          gen_op ~pid prng))

let of_gen idesc impl iprocs gen_op =
  {
    idesc;
    impl;
    iprocs;
    gen_workloads =
      (fun ~ops_per_proc prng ->
        workloads_of_gen ~procs:iprocs ~gen_op ~ops_per_proc prng);
  }

(* Fixed client programs under the fuzzer's random schedules and object
   adversaries: the generator ignores its budget and its PRNG. *)
let fixed ~(impl : Implementation.t) workloads =
  {
    idesc = impl.name;
    impl;
    iprocs = Array.length workloads;
    gen_workloads = (fun ~ops_per_proc:_ _ -> workloads);
  }

let bad_desc desc =
  invalid_arg
    (Fmt.str
       "Fuzz targets: cannot parse implementation %S (try snapshot:<n>, \
        naive-snapshot:<n>, pacnm:<n>:<m>, oprime:<n>:<K>, universal:<n>, \
        pac-facet:<n>:<m>, cons-facet:<n>:<m>, mutant-pac:<n>, \
        identity:<object>)"
       desc)

let impl_target desc =
  let int = int_field ~bad:(fun () -> bad_desc desc) in
  match String.split_on_char ':' desc with
  | [ "snapshot"; n ] ->
    (* Single-writer per construction: pid writes component pid. *)
    let n = int n in
    of_gen desc (Snapshot_impl.implementation ~n) n (fun ~pid prng ->
        if Prng.bool prng then Classic.Snapshot.update pid (small_int prng)
        else Classic.Snapshot.scan)
  | [ "naive-snapshot"; n ] ->
    let n = int n in
    of_gen desc (Snapshot_impl.naive ~n) n (fun ~pid prng ->
        if Prng.bool prng then Classic.Snapshot.update pid (small_int prng)
        else Classic.Snapshot.scan)
  | [ "pacnm"; n; m ] ->
    let n = int n and m = int m in
    let st = spec_target (Fmt.str "pacnm:%d:%d" n m) in
    of_gen desc (Pac_nm_impl.implementation ~n ~m) st.procs st.gen_op
  | [ "oprime"; n; max_k ] ->
    (* Port-bound contract: each pid proposes at each level at most
       once, so per-level call totals stay within n <= n_k. *)
    let n = int n and max_k = int max_k in
    {
      idesc = desc;
      impl = Oprime_impl.for_n ~n ~max_k;
      iprocs = n;
      gen_workloads =
        (fun ~ops_per_proc prng ->
          Array.init n (fun _ ->
              let levels =
                Prng.shuffle prng
                  (Array.of_list (Lbsa_util.Listx.range 1 max_k))
              in
              let count =
                min (min ops_per_proc max_k) (1 + Prng.int prng max_k)
              in
              List.init count (fun j ->
                  O_prime.propose (small_int prng) levels.(j))));
    }
  | [ "universal"; n ] ->
    let n = int n in
    let queue = spec_target "queue" in
    of_gen desc
      (Universal.implementation ~n ~target:(Classic.Queue_obj.spec ()) ())
      n queue.gen_op
  | [ "pac-facet"; n; m ] ->
    let n = int n and m = int m in
    let pac = spec_target (Fmt.str "pac:%d" n) in
    of_gen desc (Facets.pac_from_pac_nm ~n ~m) pac.procs pac.gen_op
  | [ "cons-facet"; n; m ] ->
    let n = int n and m = int m in
    of_gen desc
      (Facets.consensus_from_pac_nm ~n ~m)
      (m + 1)
      (fun ~pid:_ prng -> Consensus_obj.propose (small_int prng))
  | [ "mutant-pac"; n ] ->
    let n = int n in
    let pac = spec_target (Fmt.str "pac:%d" n) in
    of_gen desc (Mutant.impl ~n) pac.procs pac.gen_op
  | "identity" :: rest ->
    let inner = String.concat ":" rest in
    if inner = "" then bad_desc desc
    else
      let st = spec_target inner in
      of_gen desc (Implementation.identity st.spec) st.procs st.gen_op
  | _ -> bad_desc desc

(* The default corpus: every honest construction in lib/implement.
   [naive-snapshot] and [mutant-pac] are known-bad fixtures and are
   exercised by tests expecting violations, never by the clean sweep. *)
let all_impls () =
  List.map impl_target
    [
      "snapshot:2"; "pacnm:2:2"; "oprime:2:2"; "universal:2"; "pac-facet:2:2";
      "cons-facet:2:2";
    ]
