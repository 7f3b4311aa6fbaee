(* lint/BASELINE.json — the committed waiver file ([talint-baseline/1]):

     { "schema": "talint-baseline/1",
       "waivers": [
         { "rule": "A001",
           "file": "lib/netsim/packet.ml",
           "contains": "record allocates",
           "reason": "packet identity requires one record per arrival; \
                      revisit if the arrival loop moves to a pool" } ] }

   A waiver matches a finding when the rule and file are equal and the
   message contains the [contains] substring.  Matching findings are
   demoted to "baselined" (reported, exit-code-neutral).  A waiver that
   matches nothing is itself a B001 finding — stale entries must be
   deleted, not accumulated — as is a malformed one.  [reason] is
   mandatory: a waiver without a justification is not a waiver. *)

type waiver = {
  w_index : int;  (* 1-based position in the waivers array *)
  w_rule : string;
  w_file : string;
  w_contains : string;
}

let schema = "talint-baseline/1"
let file_name = "lint/BASELINE.json"

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go k = k + m <= n && (String.sub hay k m = needle || go (k + 1)) in
  m = 0 || go 0

(* Returns the parsed waivers plus B001 findings for malformed input.
   B001 positions index into the waivers array (line = entry position),
   since a hand-rolled parser has no source locations. *)
let parse text =
  let bad index msg =
    Finding.v ~rule:"B001" ~file:file_name ~line:index ~col:0 msg
  in
  match Obs.Json.of_string text with
  | Error e -> ([], [ bad 0 ("baseline file is not valid JSON: " ^ e) ])
  | Ok j -> (
      match Obs.Json.member "schema" j with
      | Some (Obs.Json.Str s) when s = schema -> (
          match Obs.Json.member "waivers" j with
          | Some (Obs.Json.Arr ws) ->
              let waivers = ref [] and findings = ref [] in
              List.iteri
                (fun i w ->
                  let index = i + 1 in
                  let str k =
                    match Obs.Json.member k w with
                    | Some (Obs.Json.Str s) when s <> "" -> Some s
                    | _ -> None
                  in
                  match (str "rule", str "file", str "contains", str "reason")
                  with
                  | Some rule, Some file, Some c, Some _reason ->
                      waivers :=
                        {
                          w_index = index;
                          w_rule = rule;
                          w_file = file;
                          w_contains = c;
                        }
                        :: !waivers
                  | _ ->
                      findings :=
                        bad index
                          (Printf.sprintf
                             "waiver %d is malformed: rule, file, contains \
                              and a non-empty reason are all required"
                             index)
                        :: !findings)
                ws;
              (List.rev !waivers, List.rev !findings)
          | _ -> ([], [ bad 0 "baseline file has no \"waivers\" array" ]))
      | _ ->
          ([], [ bad 0 ("baseline file schema is not " ^ schema) ]))

let matches w (f : Finding.t) =
  w.w_rule = f.Finding.rule
  && w.w_file = f.Finding.file
  && contains f.Finding.message w.w_contains

(* Split findings into (live, baselined) and append B001 findings for
   malformed and stale waivers to the live set. *)
let apply ~text findings =
  match text with
  | None -> (findings, [])
  | Some text ->
      let waivers, malformed = parse text in
      let used = Hashtbl.create 8 in
      let live, baselined =
        List.partition
          (fun f ->
            match List.find_opt (fun w -> matches w f) waivers with
            | Some w ->
                Hashtbl.replace used w.w_index ();
                false
            | None -> true)
          findings
      in
      let stale =
        List.filter_map
          (fun w ->
            if Hashtbl.mem used w.w_index then None
            else
              Some
                (Finding.v ~rule:"B001" ~file:file_name ~line:w.w_index ~col:0
                   (Printf.sprintf
                      "stale waiver %d (%s in %s, contains %S) matches no \
                       current finding; delete it"
                      w.w_index w.w_rule w.w_file w.w_contains)))
          waivers
      in
      (live @ malformed @ stale, baselined)
