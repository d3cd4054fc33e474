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

(* Rows whose output differs from an earlier build, each with the
   reason: the build before the task registry moved into [Api], the
   one before lin-check and universal became fuzz campaigns, or the one
   before fuzz refused campaigns without clients or operations.  Every
   other row printed the same bytes and exit code before and after. *)
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
    ( "fuzz --impl pacnm:2:x",
      "a non-integer size is a usage error, exit 3 (was an uncaught \
       Failure, exit 125)" );
    ( "fuzz --spec pac:x",
      "a non-integer size is a usage error, exit 3 (was an uncaught \
       Failure, exit 125)" );
    ( "fuzz --impl snapshot:2 --trials 0",
      "fewer than one trial is a usage error, exit 3 (was an uncaught \
       Invalid_argument, exit 125)" );
    ( "lin-check --trials 0",
      "fewer than one trial is a usage error, exit 3 (was \"all 0 trials \
       linearizable\", exit 0)" );
    ( "lin-check -n 0",
      "an unbuildable target is a usage error, exit 3 (was an uncaught \
       Invalid_argument, exit 125)" );
    ( "universal -n 0",
      "an unbuildable target is a usage error, exit 3 (was an uncaught \
       Invalid_argument, exit 125)" );
    ( "fuzz --spec pac:2 --procs 0 --trials 5",
      "a campaign with no clients is a usage error, exit 3 (was PASS over \
       empty workloads, exit 0)" );
    ( "fuzz --spec pac:2 --ops 0 --trials 5",
      "a campaign with no operations is a usage error, exit 3 (was PASS, \
       exit 0)" );
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
  (* lin-check and universal are fuzz campaigns; the naive snapshot is
     the known-bad fixture, caught and shrunk. *)
  @ [
      "lin-check --impl snapshot -n 2 --trials 50";
      "lin-check --impl naive-snapshot -n 3 --trials 200 --seed 42";
      "universal -n 2 --trials 30";
      "lin-check --impl pacnm -m 0";
    ]
  @ List.map fst bugfix_rows

(* Explore's telemetry lines that vary between runs or machines: wall
   clock, throughput, resident memory and the auto-chosen domain
   count. *)
let masked = [ "wall_s="; "states_per_sec="; "peak_rss_kb="; "domains=" ]

(* A fuzz report line ("PASS impl snapshot:2  50 trials  2 domains
   0.00s") ends in the auto-chosen domain count and the wall time. *)
let mask_report line =
  let words = String.split_on_char ' ' line in
  let n = List.length words in
  List.mapi
    (fun i w ->
      if i = n - 1 || List.nth_opt words (i + 1) = Some "domains" then
        "<masked>"
      else w)
    words
  |> String.concat " "

let mask line =
  match List.find_opt (fun p -> String.starts_with ~prefix:p line) masked with
  | Some p -> p ^ "<masked>"
  | None ->
    if
      String.starts_with ~prefix:"PASS " line
      || String.starts_with ~prefix:"STOP " line
    then mask_report line
    else line

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

(* lin-check and universal are views over fuzz: each prints exactly
   what the fuzz campaign of its target prints, exit code included. *)
let views =
  [
    ( "lin-check --impl snapshot -n 2 --trials 50",
      "fuzz --impl snapshot:2 --trials 50" );
    ( "lin-check --impl naive-snapshot -n 3 --trials 200 --seed 42",
      "fuzz --impl naive-snapshot:3 --trials 200 --seed 42" );
    ( "lin-check --impl pacnm -n 3 -m 2 --trials 100 --seed 7",
      "fuzz --impl pacnm:3:2 --trials 100 --seed 7" );
    ( "lin-check --impl oprime -n 2 --max-k 3 --trials 100 --seed 7",
      "fuzz --impl oprime:2:3 --trials 100 --seed 7" );
    ("universal -n 2 --trials 30", "fuzz --impl universal:2 --trials 30");
  ]

(* A refused size names the flag the user gave, not the fuzz target
   description built from it.  Stderr is not part of the golden files,
   so these pin the message. *)
let refusals =
  [
    ("lin-check --impl pacnm -m 0", "lin-check: -m must be >= 1, got 0");
    ( "lin-check --impl oprime --max-k 0",
      "lin-check: --max-k must be >= 1, got 0" );
    ("universal -n 0", "universal: -n must be >= 1, got 0");
    ("fuzz --spec pac:2 --procs 0 --trials 5", "--procs must be >= 1, got 0");
    ("fuzz --spec pac:2 --ops 0 --trials 5", "--ops must be >= 1, got 0");
  ]

let test_refusal (args, message) () =
  if not (Sys.file_exists exe) then
    Alcotest.failf "CLI executable not found at %s" exe;
  let err = Filename.temp_file "lbsa_golden" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Fmt.str "%s %s > /dev/null 2> %s" (Filename.quote exe) args
             (Filename.quote err))
      in
      Alcotest.(check int) (args ^ ": exit") 3 code;
      Alcotest.(check string) (args ^ ": stderr") message
        (List.hd (String.split_on_char '\n' (read_file err))))

let test_view (view, fuzz) () =
  if not (Sys.file_exists exe) then
    Alcotest.failf "CLI executable not found at %s" exe;
  Alcotest.(check string) view (run fuzz) (run view)

let () =
  Alcotest.run "cli_golden"
    [
      ( "matrix",
        List.map
          (fun args -> Alcotest.test_case args `Quick (test_row args))
          rows );
      ( "views",
        List.map
          (fun ((view, _) as pair) ->
            Alcotest.test_case view `Quick (test_view pair))
          views );
      ( "refusals",
        List.map
          (fun ((args, _) as pair) ->
            Alcotest.test_case args `Quick (test_refusal pair))
          refusals );
    ]
