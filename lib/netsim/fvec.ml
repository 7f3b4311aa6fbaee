type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 64) () =
  { data = Array.make (Stdlib.max capacity 1) 0.0; len = 0 }

let length t = t.len

let grow t =
  let data = Array.make (2 * Array.length t.data) 0.0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let append t src =
  while Array.length t.data < t.len + src.len do
    grow t
  done;
  Array.blit src.data 0 t.data t.len src.len;
  t.len <- t.len + src.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get: index out of range";
  t.data.(i)

let unsafe_get t i = Array.unsafe_get t.data i

let to_array t = Array.sub t.data 0 t.len
let clear t = t.len <- 0
