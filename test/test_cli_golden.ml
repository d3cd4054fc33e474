(* The CLI golden matrix: the stdout bytes and exit code of a fixed set
   of invocations, pinned against one file per row under golden/cli/.
   A golden file is the line "exit N" followed by the command's stdout.
   Timing, memory and scheduling figures that change run to run are
   masked before the comparison.

   Re-record after an intended output change with

     LBSA_GOLDEN_RECORD=$PWD/test/golden/cli dune exec test/test_cli_golden.exe

   and review the diff: every row is a contract on user-visible
   output. *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let golden_dir = Filename.concat "golden" "cli"

(* Rows whose output differs from the build before the task registry
   moved into [Api], each with the reason.  Every other row printed the
   same bytes and exit code before and after. *)
let bugfix_rows =
  [
    ( "check candidate --name flp-write-read --max-states 1",
      "a partial candidate verdict exits 2 (was 0) and gets no witness \
       search" );
    ( "check candidate --name flp-write-read --deadline 0",
      "the budget reaches candidate checks: PARTIAL, exit 2 (the deadline \
       was ignored: FAIL, exit 0)" );
    ("check dac -n x", "usage errors exit 3 (was cmdliner's 124)");
    ("check foo", "usage errors exit 3 (was cmdliner's 124)");
    ("query dac:x", "usage errors exit 3 (was cmdliner's 124)");
    ("explore foo:1", "usage errors exit 3 (was cmdliner's 124)");
    ( "fingerprint -n 3 --inputs 1,x",
      "usage errors exit 3 (was cmdliner's 124)" );
    ( "check dac -n 3 --deadline 0 --domains 1",
      "a stopped sweep names the first unchecked vector at every domain \
       count" );
    ( "check dac -n 3 --deadline 0 --domains 2",
      "a stopped sweep names the first unchecked vector (was the last \
       vector, inputs=1,1,1, on 2 domains)" );
  ]

let reduce_modes = [ "none"; "sym"; "sym+sleep" ]

let candidates =
  [
    "flp-write-read"; "flp-spin"; "3dac-sa2-then-cons2"; "3dac-cons2-announce";
    "3cons-from-22pac"; "pac-retry";
  ]

let check_rows =
  let tasks =
    [ "dac -n 3"; "consensus -m 2"; "kset -m 2 -k 2" ]
    @ List.map (fun c -> "candidate --name " ^ c) candidates
    @ [
        "vc -n 2"; "vc -n 2 --live"; "bcast -n 2 --live";
        "dac -n 3 --max-states 5";
      ]
  in
  List.concat_map
    (fun t ->
      List.map (fun r -> Fmt.str "check %s --reduce %s" t r) reduce_modes)
    tasks

let rows =
  check_rows
  @ [
      "solve dac -n 3"; "solve dac -n 3 --inputs 0,1,1"; "solve consensus -m 2";
      "solve consensus -m 2 --inputs 1,1"; "solve kset -m 2 -k 2";
      "solve kset -m 2 -k 2 --inputs 0,0,1,1"; "solve dac --inputs 1,x";
    ]
  @ List.map
      (fun p -> "valence --protocol " ^ p)
      [ "cons"; "flp-write-read"; "flp-spin"; "pac-retry"; "dac" ]
  (* The last row passes an unknown flag: a usage error, exit 3. *)
  @ [ "explore dac:3"; "explore of:3:2"; "explore of:3:2 --shards 4" ]
  @ [
      "fingerprint -n 3"; "fingerprint -n 3 --reduce sym";
      "fingerprint -n 3 --question live";
      "fingerprint -n 3 --reduce sym --question live";
    ]
  @ List.map fst bugfix_rows

(* Explore's telemetry lines that vary between runs or machines: wall
   clock, throughput, resident memory and the auto-chosen domain
   count. *)
let masked = [ "wall_s="; "states_per_sec="; "peak_rss_kb="; "domains=" ]

let mask line =
  match List.find_opt (fun p -> String.starts_with ~prefix:p line) masked with
  | Some p -> p ^ "<masked>"
  | None -> line

let file_name args =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> c
      | _ -> '_')
    args
  ^ ".txt"

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let run args =
  let out = Filename.temp_file "lbsa_golden" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Fmt.str "%s %s > %s 2>/dev/null" (Filename.quote exe) args
             (Filename.quote out))
      in
      let lines = String.split_on_char '\n' (read_file out) in
      Fmt.str "exit %d\n%s" code (String.concat "\n" (List.map mask lines)))

let test_row args () =
  if not (Sys.file_exists exe) then
    Alcotest.failf "CLI executable not found at %s" exe;
  let got = run args in
  match Sys.getenv_opt "LBSA_GOLDEN_RECORD" with
  | Some dir ->
    Out_channel.with_open_bin (Filename.concat dir (file_name args)) (fun oc ->
        output_string oc got)
  | None ->
    let want = read_file (Filename.concat golden_dir (file_name args)) in
    Alcotest.(check string) args want got

let () =
  Alcotest.run "cli_golden"
    [
      ( "matrix",
        List.map
          (fun args -> Alcotest.test_case args `Quick (test_row args))
          rows );
    ]
