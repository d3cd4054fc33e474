open Lbsa_runtime

(* Open-addressing hash table from configurations to node ids — the dedup
   structure of the explorer.  Linear probing over power-of-two capacity;
   stored hashes let most probe misses skip [Config.equal] entirely, and
   with hash-consed values the equal that does run is a per-element
   pointer scan, not a tree walk.  Replaces the seed's
   [Map.Make(Config)], whose every lookup paid O(log n) full structural
   compares.

   A slot can also be *frozen* (out-of-core builds): the key field holds
   the [frozen_key] sentinel while hash and id stay resident, and the
   configuration is fetched through [resolve] only when a probe's stored
   hash actually matches.

   The table counts its probe traffic ([probes] slot inspections,
   [hash_skips] occupied slots dismissed on stored-hash mismatch alone,
   [equal_confirms] slots where [Config.equal] actually ran) so the
   bench harness can report how much structural comparison the cached
   hashes avoid. *)

(* Both sentinels are compared with [==] only (never [Config.equal]),
   so they must be physically distinct — from each other and from every
   real configuration.  Structurally equal constant records are NOT
   enough: the compiler coalesces equal structured constants (and every
   [[||]] is the one shared atom), which once made [frozen_key == dummy]
   and silently emptied every frozen slot.  Distinct field shapes keep
   the two blocks distinct under any constant sharing; no real
   configuration matches either shape ([locals] always has one slot per
   process, [status] here disagrees with it). *)
let dummy : Config.t = { locals = [||]; objects = [||]; status = [||] }

let frozen_key : Config.t =
  { locals = [||]; objects = [||]; status = [| Config.Aborted |] }

type t = {
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;  (* entries, resident + frozen *)
  mutable n_frozen : int;
  mutable keys : Config.t array;  (* physically [dummy] = empty slot *)
  mutable hashes : int array;
  mutable ids : int array;
  mutable n_probes : int;
  mutable n_hash_skips : int;
  mutable n_equal_confirms : int;
  mutable n_faults : int;
  resolve : int -> Config.t;
}

type probe_stats = { probes : int; hash_skips : int; equal_confirms : int }

let no_resolve _ = invalid_arg "Ctbl: freeze_below requires a resolve callback"

let create ?(resolve = no_resolve) n =
  let cap = ref 16 in
  while !cap < n * 2 do
    cap := !cap * 2
  done;
  {
    mask = !cap - 1;
    size = 0;
    n_frozen = 0;
    keys = Array.make !cap dummy;
    hashes = Array.make !cap 0;
    ids = Array.make !cap (-1);
    n_probes = 0;
    n_hash_skips = 0;
    n_equal_confirms = 0;
    n_faults = 0;
    resolve;
  }

let length t = t.size
let frozen t = t.n_frozen
let faults t = t.n_faults

let probe_stats t =
  {
    probes = t.n_probes;
    hash_skips = t.n_hash_skips;
    equal_confirms = t.n_equal_confirms;
  }

let rec probe t key hash i =
  t.n_probes <- t.n_probes + 1;
  let k = t.keys.(i) in
  if k == dummy then `Empty i
  else if t.hashes.(i) <> hash then begin
    t.n_hash_skips <- t.n_hash_skips + 1;
    probe t key hash ((i + 1) land t.mask)
  end
  else begin
    t.n_equal_confirms <- t.n_equal_confirms + 1;
    let k =
      if k == frozen_key then begin
        t.n_faults <- t.n_faults + 1;
        t.resolve t.ids.(i)
      end
      else k
    in
    if Config.equal k key then `Found i
    else probe t key hash ((i + 1) land t.mask)
  end

(* Reinsertion during [grow] goes by stored hash alone (all stored keys
   are distinct, frozen or not), so it bypasses the counting probe and
   leaves the stats reflecting only lookup traffic. *)
let rec probe_empty t i =
  if t.keys.(i) == dummy then i else probe_empty t ((i + 1) land t.mask)

let grow t =
  let old_keys = t.keys and old_hashes = t.hashes and old_ids = t.ids in
  let cap = (t.mask + 1) * 2 in
  t.mask <- cap - 1;
  t.keys <- Array.make cap dummy;
  t.hashes <- Array.make cap 0;
  t.ids <- Array.make cap (-1);
  Array.iteri
    (fun i k ->
      if k != dummy then begin
        let h = old_hashes.(i) in
        let j = probe_empty t (h land t.mask) in
        t.keys.(j) <- k;
        t.hashes.(j) <- h;
        t.ids.(j) <- old_ids.(i)
      end)
    old_keys

(* Look the configuration up; if absent, insert it with id
   [if_absent key] (not called when present).  Returns the id now bound.
   [if_absent] receives the key so callers can pass one registration
   function for the whole build instead of allocating a closure per
   lookup; detect a fresh insert by comparing [length] before and
   after. *)
let find_or_add t key ~hash ~if_absent =
  match probe t key hash (hash land t.mask) with
  | `Found i -> t.ids.(i)
  | `Empty i ->
    let id = if_absent key in
    t.keys.(i) <- key;
    t.hashes.(i) <- hash;
    t.ids.(i) <- id;
    t.size <- t.size + 1;
    (* Keep load factor under 2/3 so probe chains stay short. *)
    if t.size * 3 > (t.mask + 1) * 2 then grow t;
    id

let find_opt t key ~hash =
  match probe t key hash (hash land t.mask) with
  | `Found i -> Some t.ids.(i)
  | `Empty _ -> None

let freeze_below t ~id_limit =
  let newly = ref 0 in
  for i = 0 to t.mask do
    let k = t.keys.(i) in
    if k != dummy && k != frozen_key && t.ids.(i) < id_limit then begin
      t.keys.(i) <- frozen_key;
      incr newly
    end
  done;
  t.n_frozen <- t.n_frozen + !newly;
  !newly
