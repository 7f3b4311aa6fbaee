(* The rule pass proper: parse one .ml file with compiler-libs and walk
   it with [Ast_iterator].  Everything here is syntactic — no typing
   environment — which is exactly enough for the determinism and
   domain-safety properties the repo cares about, and keeps the pass
   dependency-free and fast. *)

type role = Lib of string | Bin | Bench | Root_only

let role_to_string = function
  | Lib "" -> "lib"
  | Lib sub -> "lib/" ^ sub
  | Bin -> "bin"
  | Bench -> "bench"
  | Root_only -> "root-only"

type input = { role : role; file : string; source : string; mli_exists : bool }

(* --- rule metadata (documentation + JSON report) --- *)

type rule_info = { id : string; summary : string }

let all_rules =
  [
    { id = "D001";
      summary =
        "no Stdlib.Random in lib/ (randomness flows through lib/prng; \
         Random.self_init is banned everywhere)" };
    { id = "D002";
      summary =
        "no ambient wall-clock time (Unix.gettimeofday/Unix.time/Sys.time) \
         outside lib/obs and bench/" };
    { id = "D003";
      summary =
        "no stdout printing from lib/ (print_*, Printf.printf, \
         Format.printf, Format.std_formatter); stdout belongs to bin/" };
    { id = "R001";
      summary =
        "no module-level mutable state (ref/Hashtbl/Queue/Buffer/array \
         literals...) in lib/ outside lib/obs: it races under Exec.Pool" };
    { id = "P001";
      summary =
        "no Marshal outside lib/exec: checkpoint payloads are only safe \
         behind Exec.Journal's digest-keyed framing" };
    { id = "D004";
      summary =
        "no polymorphic compare/=/min/max on float expressions in lib/stats \
         and lib/adversary (floatarray accessor operands box; use \
         Float.compare / Float.equal)" };
    { id = "S001"; summary = "every lib/ module has a corresponding .mli" };
    { id = "S002";
      summary =
        "no failwith in lib/; raise a declared exception (cf. Tap_starved)" };
    { id = "E001";
      summary =
        "whole-program: a project-declared exception must not escape an \
         exported value without being named in its .mli doc contract" };
    { id = "T001";
      summary =
        "whole-program: no Scenarios.Sweep.mapi / Exec.Pool task may \
         transitively reach ambient randomness, wall-clock reads or \
         unsanctioned module-state mutation (sanctioned sinks: lib/prng, \
         lib/obs, Atomic/mutex-guarded state)" };
    { id = "A001";
      summary =
        "whole-program: hot-path functions from lint/hot_paths.txt and \
         their transitive callees are allocation-free (no closures, \
         list/array/record literals, partial applications or float-boxing \
         polymorphic compares)" };
    { id = "M001";
      summary =
        "whole-program: every metric (name, label) is registered by one \
         Obs.Metrics.{counter,counter_labeled,gauge,histogram} call across \
         lib/, bin/ and bench/, in the module that owns it" };
    { id = "U001";
      summary =
        "whole-program: every val a lib/ .mli exports is reached from an \
         executable root (any binding in bin/, bench/, perfbench/ or \
         examples/, or a lib/ init block); delete the rest or waive in \
         place" };
    { id = "B001";
      summary =
        "baseline hygiene: lint/BASELINE.json entry is malformed or \
         matches no current finding (stale waiver)" };
    { id = "E000"; summary = "file failed to parse (internal)" };
  ]

(* --- rule applicability by role --- *)

(* [Root_only] files (perfbench/, examples/) are U001 roots, never linted. *)
let d001_applies = function Lib sub -> sub <> "prng" | _ -> false
let d002_applies = function Lib sub -> sub <> "obs" | Bin -> true | _ -> false
let d004_applies = function Lib ("stats" | "adversary") -> true | _ -> false
let d003_applies = function Lib _ -> true | _ -> false
let r001_applies = function Lib sub -> sub <> "obs" | _ -> false
let p001_applies = function
  | Lib sub -> sub <> "exec" | Bin | Bench -> true | Root_only -> false
let s001_applies = function Lib _ -> true | _ -> false
let s002_applies = function Lib _ -> true | _ -> false

(* --- identifier tables --- *)

let time_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

let print_idents =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_char" ]; [ "print_int" ]; [ "print_float" ]; [ "print_bytes" ];
    [ "Printf"; "printf" ]; [ "Format"; "printf" ];
    [ "Format"; "print_string" ]; [ "Format"; "print_newline" ];
    [ "Format"; "std_formatter" ];
  ]

(* Functions whose result is fresh mutable state: calling one of these in
   module-initialisation position creates a global shared across every
   domain [Exec.Pool] spawns.  [Atomic.make] and [Mutex.create] are
   deliberately absent — they are the race-safe way to share. *)
let alloc_idents =
  [
    [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ];
    [ "Stack"; "create" ]; [ "Buffer"; "create" ]; [ "Array"; "make" ];
    [ "Array"; "init" ]; [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ]; [ "Bytes"; "create" ]; [ "Bytes"; "make" ];
    [ "Weak"; "create" ];
  ]

let rec flatten acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flatten (s :: acc) l
  | Longident.Lapply _ -> []

(* [Stdlib.Random.int] and [Random.int] are the same thing. *)
let normalize lid =
  match flatten [] lid with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let dotted = String.concat "."

(* --- float polymorphic-compare heuristic (D004 / A001) ---

   Purely syntactic float-ness: an operand is "surely float" when it is a
   floatarray accessor application ([Float.Array.get]/[unsafe_get] — the
   result boxes the moment it meets a polymorphic primitive), and
   "probably float" when it is a float literal or float arithmetic.  The
   ordered operators only fire on the sure form (compares against float
   literals are idiomatic and compile to specialised code once the other
   operand's type is known); [compare]/[min]/[max] also fire on the
   probable form, because those remain polymorphic calls. *)

let cmp_ops = [ "="; "<>"; "<"; "<="; ">"; ">="; "compare"; "min"; "max" ]

let rec unparen e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) -> unparen e
  | _ -> e

let floatarray_accessor e =
  match (unparen e).Parsetree.pexp_desc with
  | Parsetree.Pexp_apply
      ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) -> (
      match normalize txt with
      | [ "Float"; "Array"; ("get" | "unsafe_get") ] -> true
      | _ -> false)
  | _ -> false

let float_arith_ops =
  [ "+."; "-."; "*."; "/."; "**"; "sqrt"; "exp"; "log"; "float_of_int" ]

let floatish e =
  let e = unparen e in
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) -> true
  | Parsetree.Pexp_apply
      ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) -> (
      match normalize txt with
      | [ op ] when List.mem op float_arith_ops -> true
      | [ "Float"; "of_int" ] -> true
      | _ -> false)
  | _ -> false

let float_polycmp e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply
      ( { pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ },
        (_, a) :: (_, b) :: _ ) -> (
      match normalize txt with
      | [ op ] when List.mem op cmp_ops ->
          if floatarray_accessor a || floatarray_accessor b then Some op
          else if
            List.mem op [ "compare"; "min"; "max" ]
            && (floatish a || floatish b)
          then Some op
          else None
      | _ -> None)
  | _ -> None

(* --- the pass --- *)

let check input =
  let findings = ref [] in
  let add ~rule ~loc message =
    let p = loc.Location.loc_start in
    findings :=
      (* [Location.in_file] carries cnum = -1; clamp for file-scope rules. *)
      Finding.v ~rule ~file:input.file ~line:p.Lexing.pos_lnum
        ~col:(max 0 (p.Lexing.pos_cnum - p.Lexing.pos_bol))
        message
      :: !findings
  in
  (* 0 = module-initialisation position; >0 = inside a function body,
     where mutable allocation is local and fine (R001). *)
  let fn_depth = ref 0 in
  let check_path ~loc path =
    (match path with
    | "Random" :: "self_init" :: _ ->
        add ~rule:"D001" ~loc
          "Random.self_init makes runs unreproducible; seeds must be \
           explicit (Rng.mix_seed)"
    | "Random" :: _ when d001_applies input.role ->
        add ~rule:"D001" ~loc
          (Printf.sprintf
             "%s: ambient randomness in %s; use lib/prng (Rng.mix_seed) so \
              results are deterministic in the root seed"
             (dotted path)
             (role_to_string input.role))
    | _ -> ());
    if d002_applies input.role && List.mem path time_idents then
      add ~rule:"D002" ~loc
        (Printf.sprintf
           "%s: wall-clock reads belong to lib/obs and bench/ only; \
            simulation logic must use Sim.now"
           (dotted path));
    if d003_applies input.role && List.mem path print_idents then
      add ~rule:"D003" ~loc
        (Printf.sprintf
           "%s: libraries must not write to stdout; take a formatter or \
            emit through Obs"
           (dotted path));
    (match path with
    | "Marshal" :: _ when p001_applies input.role ->
        add ~rule:"P001" ~loc
          (Printf.sprintf
             "%s: Marshal is not type-safe; checkpoint payloads go through \
              Exec.Journal.encode/decode, whose journal header digest keys \
              the payload layout to the sweep that wrote it"
             (dotted path))
    | _ -> ());
    if s002_applies input.role && path = [ "failwith" ] then
      add ~rule:"S002" ~loc
        "failwith in library code: raise a declared exception callers can \
         match (cf. Scenarios.Starvation.Tap_starved)"
  in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> check_path ~loc (normalize txt)
    | Parsetree.Pexp_apply
        ({ pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, _)
      when !fn_depth = 0
           && r001_applies input.role
           && List.mem (normalize txt) alloc_idents ->
        add ~rule:"R001" ~loc
          (Printf.sprintf
             "%s at module level creates mutable state shared across \
              Exec.Pool domains; allocate inside the run, shard through \
              Obs, or justify with an allow comment"
             (dotted (normalize txt)))
    | Parsetree.Pexp_array (_ :: _) when !fn_depth = 0 && r001_applies input.role
      ->
        add ~rule:"R001" ~loc:e.Parsetree.pexp_loc
          "non-empty array literal at module level is mutable state shared \
           across Exec.Pool domains"
    | _ -> ());
    (match float_polycmp e with
    | Some op when d004_applies input.role ->
        add ~rule:"D004" ~loc:e.Parsetree.pexp_loc
          (Printf.sprintf
             "polymorphic %s on a float expression boxes the operand and \
              takes the NaN-unsafe structural path; use Float.compare / \
              Float.equal (cf. the PR 5 sort fixes)"
             op)
    | _ -> ());
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
        incr fn_depth;
        default.Ast_iterator.expr it e;
        decr fn_depth
    | _ -> default.Ast_iterator.expr it e
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { txt; loc } -> (
        match normalize txt with
        | "Random" :: _ when d001_applies input.role ->
            add ~rule:"D001" ~loc
              "module Random: ambient randomness; use lib/prng instead"
        | _ -> ())
    | _ -> ());
    default.Ast_iterator.module_expr it m
  in
  let iter = { default with Ast_iterator.expr; module_expr } in
  (match
     let lexbuf = Lexing.from_string input.source in
     Location.init lexbuf input.file;
     Parse.implementation lexbuf
   with
  | ast -> iter.Ast_iterator.structure iter ast
  | exception exn ->
      let loc =
        match exn with
        | Syntaxerr.Error e -> Syntaxerr.location_of_error e
        | _ -> Location.in_file input.file
      in
      add ~rule:"E000" ~loc
        (Printf.sprintf "parse error: %s" (Printexc.to_string exn)));
  if s001_applies input.role && not input.mli_exists then
    add ~rule:"S001" ~loc:(Location.in_file input.file)
      "library module without an .mli: every lib/ module must declare its \
       interface";
  let sup = Suppress.scan input.source in
  !findings
  |> List.filter (fun (f : Finding.t) ->
         if f.Finding.rule = "S001" then
           not (Suppress.allows_anywhere sup ~rule:"S001")
         else not (Suppress.allows sup ~line:f.Finding.line ~rule:f.Finding.rule))
  |> List.sort Finding.compare
