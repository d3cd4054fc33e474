(* Checkpoint persistence.  See the .mli for why this stores the
   structural Mirror forms instead of marshalling [Config.t] directly:
   intern ids and pointer identity must not cross a process boundary,
   so freezing strips them and thawing re-interns through the smart
   constructors.

   Version 3 replaced the single whole-file Marshal blob with the
   framed section discipline of the out-of-core segment store
   ({!Segstore.Segio}): one checksummed CKMETA section, then the node
   and step arrays streamed in bounded CKNODES/CKSTEPS chunks.  Each
   section is independently checksummed, a corrupt chunk fails loudly
   at its own offset, and writing a multi-gigabyte checkpoint never
   needs a second whole-graph copy in one Marshal buffer. *)

type meta = {
  m_label : string;
  m_expanded : int;
  m_offsets : int array;
  m_dedup_hits : int;
  m_n_succs : int;
  m_frontier_sizes : int array;
  m_reduction : string;
  m_substrate : string;
  m_canonized : int;
  m_ample_nodes : int;
  m_ample_pruned : int;
  m_n_nodes : int;
  m_n_steps : int;
}

type t = {
  label : string;
  nodes : Mirror.pconfig array;
  expanded : int;
  steps : int array;  (* packed (target lsl 8) lor pid, as in the graph *)
  offsets : int array;
  dedup_hits : int;
  n_succs : int;
  frontier_sizes : int array;
  reduction : string;  (* reduction mode the exploration ran under *)
  substrate : string;  (* substrate the exploration ran under *)
  canonized : int;
  ample_nodes : int;
  ample_pruned : int;
}

let label t = t.label
let reduction t = t.reduction
let substrate t = t.substrate

(* --- freeze / thaw ------------------------------------------------------- *)

let freeze ~label (s : Graph.suspended) =
  {
    label;
    nodes = Array.map Mirror.freeze_config s.Graph.s_nodes;
    expanded = s.Graph.s_expanded;
    steps = Array.copy s.Graph.s_steps;
    offsets = Array.copy s.Graph.s_offsets;
    dedup_hits = s.Graph.s_dedup_hits;
    n_succs = s.Graph.s_n_succs;
    frontier_sizes = Array.copy s.Graph.s_frontier_sizes;
    reduction = s.Graph.s_reduction;
    substrate = s.Graph.s_substrate;
    canonized = s.Graph.s_canonized;
    ample_nodes = s.Graph.s_ample_nodes;
    ample_pruned = s.Graph.s_ample_pruned;
  }

let thaw t : Graph.suspended =
  Graph.suspended_of_parts
    ~nodes:(Array.map Mirror.thaw_config t.nodes)
    ~expanded:t.expanded
    ~steps:(Array.copy t.steps)
    ~offsets:(Array.copy t.offsets) ~dedup_hits:t.dedup_hits
    ~n_succs:t.n_succs
    ~frontier_sizes:(Array.copy t.frontier_sizes)
    ~reduction:t.reduction ~substrate:t.substrate ~canonized:t.canonized
    ~ample_nodes:t.ample_nodes ~ample_pruned:t.ample_pruned

(* --- persistence -------------------------------------------------------- *)

(* A magic line guards against feeding arbitrary files to [Marshal];
   the version is part of it, so a format change invalidates old
   checkpoints loudly instead of deserializing garbage.  Version 2
   added the reduction mode and counters; version 3 moved to the
   framed-section format above.  Version-2 files are refused, not
   migrated: a checkpoint is a resumable scratch artifact, and the
   exploration it froze is cheaper to redo than a silent cross-version
   misread would be to debug.  Version 4 records the execution
   substrate the exploration ran under, so a resume cannot silently
   replay a shared-memory prefix under a message-passing step relation
   (or vice versa).  Version 5 stores the topology only — packed
   (target, pid) steps instead of edge records with events, which the
   graph recomputes on demand; version-4 files are refused like any
   older format. *)
let magic = "LBSA-CHECKPOINT/5\n"
let magic_family = "LBSA-CHECKPOINT/"

exception Version_mismatch of string

exception Corrupt of string
(* The file carries the checkpoint magic but its body fails validation
   (truncation, checksum, chunk order, undecodable section) or keeps
   hitting I/O errors.  Distinct from the [Failure] of
   not-a-checkpoint-at-all: a corrupt checkpoint is a damaged scratch
   artifact — CLIs refuse it with the partial exit code 2 (re-run the
   exploration), not the usage code. *)

(* Array chunk size for the streamed node/step sections. *)
let chunk_len = 65_536

(* The save streams through a {!Lbsa_util.Rio} atomic commit: tmp file,
   fsync, rename, directory fsync.  Without the fsyncs, tmp+rename only
   protects against a *process* crash — a power loss shortly after
   rename could still leave the new name pointing at unwritten data.
   The crash points Rio exposes under LBSA_IO_CRASH=checkpoint.save:<n>
   are what the kill-mid-checkpoint harness drives. *)
let save ~file t =
  Lbsa_util.Rio.with_atomic_file ~site:"checkpoint.save" ~path:file (fun w ->
      let sink = Lbsa_util.Rio.write_string w in
      sink magic;
      let meta =
        {
          m_label = t.label;
          m_expanded = t.expanded;
          m_offsets = t.offsets;
          m_dedup_hits = t.dedup_hits;
          m_n_succs = t.n_succs;
          m_frontier_sizes = t.frontier_sizes;
          m_reduction = t.reduction;
          m_substrate = t.substrate;
          m_canonized = t.canonized;
          m_ample_nodes = t.ample_nodes;
          m_ample_pruned = t.ample_pruned;
          m_n_nodes = Array.length t.nodes;
          m_n_steps = Array.length t.steps;
        }
      in
      Segstore.Segio.write_section_sink sink ~tag:"CKMETA"
        (Marshal.to_string meta []);
      let stream tag arr =
        let n = Array.length arr in
        let lo = ref 0 in
        while !lo < n do
          let len = min chunk_len (n - !lo) in
          Segstore.Segio.write_section_sink sink ~tag
            (Marshal.to_string (!lo, Array.sub arr !lo len) []);
          lo := !lo + len
        done
      in
      stream "CKNODES" t.nodes;
      stream "CKSTEPS" t.steps)

let load ~file =
  let ic =
    try open_in_bin file
    with Sys_error e -> failwith (Fmt.str "Checkpoint.load: %s" e)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header =
        try really_input_string ic (String.length magic)
        with End_of_file -> ""
      in
      if not (String.equal header magic) then
        if
          String.length header >= String.length magic_family
          && String.equal
               (String.sub header 0 (String.length magic_family))
               magic_family
        then
          raise
            (Version_mismatch
               (Fmt.str
                  "Checkpoint.load: %s is a %s checkpoint; this build reads \
                   version 5 only (re-run the exploration to produce a new \
                   checkpoint)"
                  file
                  (String.trim header)))
        else
          failwith
            (Fmt.str "Checkpoint.load: %s is not a version-5 checkpoint file"
               file);
      (* Magic validated: any defect from here on is a *corrupt
         checkpoint*, reported with the typed [Corrupt] so CLIs can
         refuse it cleanly (exit 2) instead of dying on an untyped
         [Failure] from Segio or [Marshal]. *)
      let defect msg =
        raise (Corrupt (Fmt.str "Checkpoint.load: %s: %s" file msg))
      in
      (try Lbsa_util.Rio.inject_read_fault ~site:"checkpoint.load"
       with Unix.Unix_error (e, _, _) -> defect (Unix.error_message e));
      let read_section ic =
        match Segstore.Segio.read_section ic with
        | s -> s
        | exception Failure msg -> defect msg
        | exception (Sys_error msg) -> defect msg
        | exception Unix.Unix_error (e, _, _) ->
          defect (Unix.error_message e)
      in
      let unmarshal : type a. string -> a = fun payload ->
        try Marshal.from_string payload 0
        with Failure msg | Invalid_argument msg ->
          defect (Fmt.str "undecodable section: %s" msg)
      in
      let meta =
        match read_section ic with
        | Some ("CKMETA", payload) -> (unmarshal payload : meta)
        | Some (tag, _) -> defect (Fmt.str "expected CKMETA, got %s" tag)
        | None -> defect "truncated (no CKMETA)"
      in
      if meta.m_n_nodes < 0 || meta.m_n_steps < 0 then defect "negative counts";
      let nodes =
        Array.make meta.m_n_nodes
          { Mirror.plocals = [||]; pobjects = [||]; pstatus = [||] }
      in
      let steps = Array.make meta.m_n_steps 0 in
      let fill (type a) tag (arr : a array) total =
        let got = ref 0 in
        while !got < total do
          match read_section ic with
          | Some (tag', payload) when String.equal tag' tag ->
            let lo, chunk = (unmarshal payload : int * a array) in
            if lo <> !got || lo + Array.length chunk > total then
              defect (Fmt.str "%s chunk out of order" tag);
            Array.blit chunk 0 arr lo (Array.length chunk);
            got := !got + Array.length chunk
          | Some (tag', _) ->
            defect (Fmt.str "expected %s, got %s" tag tag')
          | None -> defect (Fmt.str "truncated in %s" tag)
        done
      in
      fill "CKNODES" nodes meta.m_n_nodes;
      fill "CKSTEPS" steps meta.m_n_steps;
      {
        label = meta.m_label;
        nodes;
        expanded = meta.m_expanded;
        steps;
        offsets = meta.m_offsets;
        dedup_hits = meta.m_dedup_hits;
        n_succs = meta.m_n_succs;
        frontier_sizes = meta.m_frontier_sizes;
        reduction = meta.m_reduction;
        substrate = meta.m_substrate;
        canonized = meta.m_canonized;
        ample_nodes = meta.m_ample_nodes;
        ample_pruned = meta.m_ample_pruned;
      })
