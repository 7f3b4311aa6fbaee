(** The talint rule pass: one parsed walk over a single [.ml] file.

    Rules (suppressible with [(* talint: allow RULE — reason *)]):
    - [D001] no [Stdlib.Random] in [lib/] (except [lib/prng]);
      [Random.self_init] banned everywhere.
    - [D002] no wall-clock reads ([Unix.gettimeofday], [Unix.time],
      [Sys.time]) outside [lib/obs] and [bench/].
    - [D003] no stdout printing from [lib/].
    - [R001] no module-level mutable state in [lib/] outside [lib/obs]
      (races under [Exec.Pool] domain fan-outs).
    - [D004] no polymorphic compare on float expressions in [lib/stats]
      and [lib/adversary] (floatarray accessor operands box).
    - [S001] every [lib/] module has an [.mli].
    - [S002] no [failwith] in [lib/]; declared exceptions only.
    - [E000] internal: the file failed to parse.

    The whole-program pass ids ([E001] exception escape, [T001]
    transitive determinism, [A001] zero-alloc hot paths, [M001] one
    registration per metric, [B001] baseline hygiene) are listed in
    {!all_rules} but implemented in {!Escape}/{!Taint}/{!Alloccheck}
    over the {!Callgraph}, in {!Driver} over the {!Symtab} summaries,
    and in {!Baseline}. *)

type role =
  | Lib of string  (** subdirectory under [lib/], e.g. [Lib "desim"] *)
  | Bin
  | Bench

val role_to_string : role -> string

type input = {
  role : role;
  file : string;      (** path used in reports *)
  source : string;    (** file contents *)
  mli_exists : bool;  (** does [file]'s sibling [.mli] exist? (S001) *)
}

type rule_info = { id : string; summary : string }

val all_rules : rule_info list
(** Rule ids with one-line summaries, for [--help]-style listings. *)

val check : input -> Finding.t list
(** All unsuppressed findings for one file, sorted by position. *)

(** {2 Shared syntactic helpers} (used by {!Symtab} so the per-file and
    whole-program passes agree on what counts as a violation) *)

val normalize : Longident.t -> string list
(** Flatten a [Longident] path, dropping a leading [Stdlib.]. *)

val dotted : string list -> string

val time_idents : string list list
(** The ambient wall-clock readers D002 bans. *)

val float_polycmp : Parsetree.expression -> string option
(** [Some op] when the expression is a polymorphic comparison whose
    operands are syntactically float (D004 / A001 float-boxing). *)

val d001_applies : role -> bool
val d002_applies : role -> bool
val d004_applies : role -> bool
val r001_applies : role -> bool
