open Lbsa_spec

(* Name-based object construction for the CLI and for table-driven
   experiments.  Grammar (colon-separated):

     reg | reg:<init-int>
     cons:<m>
     2sa
     nksa:<n>:<k>
     pac:<n>
     pacnm:<n>:<m>
     on:<n>
     oprime:<n>:<max_k>
     tas | faa | swap | queue | cas | sticky
     snapshot:<m> *)

let parse_error s = invalid_arg (Fmt.str "Registry.of_string: cannot parse %S" s)

let of_string s : Obj_spec.t =
  let int v =
    match int_of_string_opt v with Some i -> i | None -> parse_error s
  in
  match String.split_on_char ':' s with
  | [ "reg" ] -> Register.spec ()
  | [ "reg"; v ] -> Register.spec ~init:(Value.int (int v)) ()
  | [ "cons"; m ] -> Consensus_obj.spec ~m:(int m) ()
  | [ "2sa" ] -> Sa2.spec ()
  | [ "nksa"; n; k ] ->
    Nk_sa.spec ~n:(int n) ~k:(int k) ()
  | [ "pac"; n ] -> Pac.spec ~n:(int n) ()
  | [ "pacnm"; n; m ] ->
    Pac_nm.spec ~n:(int n) ~m:(int m) ()
  | [ "on"; n ] -> O_n.spec ~n:(int n) ()
  | [ "oprime"; n; max_k ] ->
    O_prime.spec_for ~n:(int n) ~max_k:(int max_k) ()
  | [ "tas" ] -> Classic.Test_and_set.spec ()
  | [ "faa" ] -> Classic.Fetch_and_add.spec ()
  | [ "swap" ] -> Classic.Swap.spec ()
  | [ "queue" ] -> Classic.Queue_obj.spec ()
  | [ "cas" ] -> Classic.Compare_and_swap.spec ()
  | [ "sticky" ] -> Classic.Sticky.spec ()
  | [ "snapshot"; m ] -> Classic.Snapshot.spec ~m:(int m) ()
  | _ -> parse_error s

let known =
  [
    ("reg", "atomic read/write register (optional :init)");
    ("cons:<m>", "m-consensus object");
    ("2sa", "strong 2-set-agreement object (Algorithm 3)");
    ("nksa:<n>:<k>", "(n,k)-set-agreement object");
    ("pac:<n>", "n-PAC object (Algorithm 1)");
    ("pacnm:<n>:<m>", "(n,m)-PAC object (Section 5)");
    ("on:<n>", "O_n = (n+1,n)-PAC (Definition 6.1)");
    ("oprime:<n>:<K>", "O'_n with default power prefix of length K");
    ("tas", "test-and-set");
    ("faa", "fetch-and-add");
    ("swap", "swap register");
    ("queue", "FIFO queue");
    ("cas", "compare-and-swap");
    ("sticky", "sticky register");
    ("snapshot:<m>", "m-component atomic snapshot");
  ]
