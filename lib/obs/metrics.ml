(* Each metric owns one cell per recording domain, handed out lazily
   through a [Domain.DLS] key whose initializer registers the fresh cell
   in the metric's shard list (the only locked step, once per domain per
   metric).  The record hot path is a DLS lookup plus a plain mutable
   update — no atomics, no sharing.  Merges are integer sums (counters,
   buckets) and maxima (gauges): associative and commutative, so snapshot
   totals cannot depend on how the recording work was sharded. *)

type 'a shards = {
  mutex : Mutex.t;
  mutable cells : 'a list;
  key : 'a Domain.DLS.key;
}

(* The DLS initializer must append to the list the record exposes; tie
   the knot through a mutable holder. *)
let make_shards (fresh : unit -> 'a) : 'a shards =
  let mutex = Mutex.create () in
  let holder = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = fresh () in
        (match !holder with
        | Some t -> Mutex.protect t.mutex (fun () -> t.cells <- c :: t.cells)
        | None -> ());
        c)
  in
  let t = { mutex; cells = []; key } in
  holder := Some t;
  t

let fold_shards t ~init ~f =
  Mutex.protect t.mutex (fun () -> List.fold_left f init t.cells)

let iter_shards t ~f =
  Mutex.protect t.mutex (fun () -> List.iter f t.cells)

module Buckets = struct
  let sub = 8
  let min_exp = -40
  let max_exp = 40
  let regular = (max_exp - min_exp + 1) * sub
  let n = regular + 2

  let index_of v =
    if Float.is_nan v || v <= 0.0 then 0
    else if v = Float.infinity then n - 1
    else
      let m, e = Float.frexp v in
      if e < min_exp then 1
      else if e > max_exp then n - 1
      else
        let s = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
        let s = if s >= sub then sub - 1 else if s < 0 then 0 else s in
        1 + ((e - min_exp) * sub) + s

  let bounds b =
    if b <= 0 then (neg_infinity, 0.0)
    else if b >= n - 1 then (Float.ldexp 1.0 max_exp, Float.infinity)
    else
      let rb = b - 1 in
      let e = min_exp + (rb / sub) and s = rb mod sub in
      let scale = Float.ldexp 1.0 (e - 1) in
      let lo =
        if b = 1 then 0.0
        else scale *. (1.0 +. (float_of_int s /. float_of_int sub))
      in
      let hi = scale *. (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) in
      (lo, hi)

  let midpoint b =
    if b = 0 then 0.0
    else if b >= n - 1 then fst (bounds b)
    else
      let lo, hi = bounds b in
      0.5 *. (lo +. hi)
end

type counter = { c_name : string; c_shards : int ref shards }
type gauge = { g_name : string; g_shards : float ref shards }
type histogram = { h_name : string; h_shards : int array shards }

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let register name make view =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match view m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Obs.Metrics: %S already registered as a %s"
                   name
                   (match m with
                   | C _ -> "counter"
                   | G _ -> "gauge"
                   | H _ -> "histogram")))
      | None ->
          let x, m = make () in
          Hashtbl.replace registry name m;
          x)

let counter ?(help = "") name =
  ignore help;
  register name
    (fun () ->
      let c = { c_name = name; c_shards = make_shards (fun () -> ref 0) } in
      (c, C c))
    (function C c -> Some c | G _ | H _ -> None)

(* Labeled counters compose "base{key=value}" names so a small family of
   per-class series (e.g. the fleet mux's per-rate-class arrival counts)
   shares one base name.  The brace syntax is reserved for this
   constructor, keeping plain and labeled names unambiguous. *)
let counter_labeled ?help name ~label:(k, v) =
  let bad s = String.exists (fun c -> c = '{' || c = '}' || c = '=') s in
  if bad name || bad k || bad v || k = "" || v = "" then
    invalid_arg
      (Printf.sprintf
         "Obs.Metrics.counter_labeled: %S{%S=%S} — names and labels must be \
          non-empty and brace/equals-free"
         name k v);
  counter ?help (Printf.sprintf "%s{%s=%s}" name k v)

let incr c = Stdlib.incr (Domain.DLS.get c.c_shards.key)
let add c n = if n <> 0 then
    let r = Domain.DLS.get c.c_shards.key in
    r := !r + n

let counter_value c =
  fold_shards c.c_shards ~init:0 ~f:(fun acc r -> acc + !r)

let gauge ?(help = "") name =
  ignore help;
  register name
    (fun () ->
      let g =
        { g_name = name; g_shards = make_shards (fun () -> ref neg_infinity) }
      in
      (g, G g))
    (function G g -> Some g | C _ | H _ -> None)

let observe_hwm g v =
  let r = Domain.DLS.get g.g_shards.key in
  if v > !r then r := v

let gauge_value g =
  let m =
    fold_shards g.g_shards ~init:neg_infinity ~f:(fun acc r -> Float.max acc !r)
  in
  if m = neg_infinity then 0.0 else m

let histogram ?(help = "") name =
  ignore help;
  register name
    (fun () ->
      let h =
        { h_name = name; h_shards = make_shards (fun () -> Array.make Buckets.n 0) }
      in
      (h, H h))
    (function H h -> Some h | C _ | G _ -> None)

let observe h v =
  let a = Domain.DLS.get h.h_shards.key in
  let i = Buckets.index_of v in
  a.(i) <- a.(i) + 1

module Snapshot = struct
  type hist = {
    count : int;
    mean : float;
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;
    buckets : (int * int) list;
  }

  type value = Counter of int | Gauge of float | Histogram of hist
  type t = (string * value) list

  let find t name = List.assoc_opt name t

  let counter_value t name =
    match find t name with Some (Counter n) -> n | _ -> 0

  let filter_prefix p t =
    List.filter (fun (name, _) -> String.starts_with ~prefix:p name) t

  let drop_prefix p t =
    List.filter (fun (name, _) -> not (String.starts_with ~prefix:p name)) t

  let quantile merged ~count q =
    if count = 0 then 0.0
    else begin
      let target =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count)))
      in
      let cum = ref 0 and found = ref 0.0 and seen = ref false in
      Array.iteri
        (fun i c ->
          if c > 0 && not !seen then begin
            cum := !cum + c;
            if !cum >= target then begin
              seen := true;
              found := snd (Buckets.bounds i)
            end
          end)
        merged;
      !found
    end

  let pp_value ppf = function
    | Counter n -> Format.fprintf ppf "%d" n
    | Gauge v -> Format.fprintf ppf "%g" v
    | Histogram h ->
        Format.fprintf ppf "n=%d mean=%g p50=%g p90=%g p99=%g max=%g" h.count
          h.mean h.p50 h.p90 h.p99 h.max

  let pp ppf t =
    List.iter
      (fun (name, v) ->
        let kind =
          match v with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        Format.fprintf ppf "%-9s %-44s %a@." kind name pp_value v)
      t
end

let hist_snapshot h : Snapshot.hist =
  let merged = Array.make Buckets.n 0 in
  iter_shards h.h_shards ~f:(fun a ->
      Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) a);
  let count = Array.fold_left ( + ) 0 merged in
  let mean =
    if count = 0 then 0.0
    else begin
      (* Fixed iteration order: the float accumulation is deterministic
         whenever the merged integer counts are. *)
      let acc = ref 0.0 in
      Array.iteri
        (fun i c ->
          if c > 0 then
            acc := !acc +. (float_of_int c *. Buckets.midpoint i))
        merged;
      !acc /. float_of_int count
    end
  in
  let max =
    let m = ref 0.0 in
    Array.iteri (fun i c -> if c > 0 then m := snd (Buckets.bounds i)) merged;
    !m
  in
  let buckets = ref [] in
  for i = Buckets.n - 1 downto 0 do
    if merged.(i) > 0 then buckets := (i, merged.(i)) :: !buckets
  done;
  {
    count;
    mean;
    p50 = Snapshot.quantile merged ~count 0.50;
    p90 = Snapshot.quantile merged ~count 0.90;
    p99 = Snapshot.quantile merged ~count 0.99;
    max;
    buckets = !buckets;
  }

let name_of = function C c -> c.c_name | G g -> g.g_name | H h -> h.h_name

let metrics () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry [])

let snapshot () : Snapshot.t =
  metrics ()
  |> List.map (fun m ->
         let v =
           match m with
           | C c -> Snapshot.Counter (counter_value c)
           | G g -> Snapshot.Gauge (gauge_value g)
           | H h -> Snapshot.Histogram (hist_snapshot h)
         in
         (name_of m, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* talint: allow U001 — tests reset the registry between cases *)
let reset () =
  List.iter
    (function
      | C c -> iter_shards c.c_shards ~f:(fun r -> r := 0)
      | G g -> iter_shards g.g_shards ~f:(fun r -> r := neg_infinity)
      | H h -> iter_shards h.h_shards ~f:(fun a -> Array.fill a 0 Buckets.n 0))
    (metrics ())
