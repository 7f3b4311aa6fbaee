type 'a t = {
  mutable data : 'a array; (* empty until the first push *)
  mutable head : int;
  mutable len : int;
}

let create () = { data = [||]; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Called with the value being pushed so the storage can be seeded
   without a dummy; also handles the initial empty-array state. *)
let grow t seed =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let data = Array.make new_cap seed in
  let first = Stdlib.min t.len (cap - t.head) in
  Array.blit t.data t.head data 0 first;
  Array.blit t.data 0 data first (t.len - first);
  t.data <- data;
  t.head <- 0

let push t x =
  if t.len = Array.length t.data then grow t x;
  let cap = Array.length t.data in
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  t.data.(i) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.data.(t.head) in
  let head = t.head + 1 in
  t.head <- (if head = Array.length t.data then 0 else head);
  t.len <- t.len - 1;
  x

let clear t =
  t.head <- 0;
  t.len <- 0
