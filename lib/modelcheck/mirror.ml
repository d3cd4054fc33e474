open Lbsa_spec
open Lbsa_runtime

(* Structural freeze/thaw.  See the .mli for why persistence must not
   marshal [Config.t] directly: intern ids and pointer identity must
   not cross a process boundary, so freezing strips them and thawing
   re-interns through the smart constructors. *)

type pvalue =
  | PUnit
  | PBool of bool
  | PInt of int
  | PSym of string
  | PBot
  | PNil
  | PDone
  | PPair of pvalue * pvalue
  | PList of pvalue list

type pstatus = PRunning | PDecided of pvalue | PAborted | PCrashed

type pconfig = {
  plocals : pvalue array;
  pobjects : pvalue array;
  pstatus : pstatus array;
}

(* --- freeze ------------------------------------------------------------- *)

let rec freeze_value (v : Value.t) : pvalue =
  match Value.node v with
  | Value.Unit -> PUnit
  | Value.Bool b -> PBool b
  | Value.Int i -> PInt i
  | Value.Sym s -> PSym s
  | Value.Bot -> PBot
  | Value.Nil -> PNil
  | Value.Done -> PDone
  | Value.Pair (a, b) -> PPair (freeze_value a, freeze_value b)
  | Value.List vs -> PList (List.map freeze_value vs)

let freeze_status = function
  | Config.Running -> PRunning
  | Config.Decided v -> PDecided (freeze_value v)
  | Config.Aborted -> PAborted
  | Config.Crashed -> PCrashed

let freeze_config (c : Config.t) =
  {
    plocals = Array.map freeze_value c.Config.locals;
    pobjects = Array.map freeze_value c.Config.objects;
    pstatus = Array.map freeze_status c.Config.status;
  }

(* --- thaw --------------------------------------------------------------- *)

let rec thaw_value = function
  | PUnit -> Value.unit_
  | PBool b -> Value.bool b
  | PInt i -> Value.int i
  | PSym s -> Value.sym s
  | PBot -> Value.bot
  | PNil -> Value.nil
  | PDone -> Value.done_
  | PPair (a, b) -> Value.pair (thaw_value a, thaw_value b)
  | PList vs -> Value.list (List.map thaw_value vs)

let thaw_status = function
  | PRunning -> Config.Running
  | PDecided v -> Config.Decided (thaw_value v)
  | PAborted -> Config.Aborted
  | PCrashed -> Config.Crashed

let thaw_config c : Config.t =
  {
    Config.locals = Array.map thaw_value c.plocals;
    objects = Array.map thaw_value c.pobjects;
    status = Array.map thaw_status c.pstatus;
  }
