type frame = { start : float; mutable child_s : float }

(* Active spans nest within one domain; each domain gets its own stack. *)
let stack_key : frame Stack.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Stack.create ())

type stat = { name : string; count : int; total_s : float; self_s : float }

let table : (string, stat) Hashtbl.t = Hashtbl.create 32
let mutex = Mutex.create ()

let record ~name ~elapsed ~self =
  Mutex.protect mutex (fun () ->
      let prev =
        match Hashtbl.find_opt table name with
        | Some s -> s
        | None -> { name; count = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace table name
        {
          prev with
          count = prev.count + 1;
          total_s = prev.total_s +. elapsed;
          self_s = prev.self_s +. self;
        })

let run name f =
  let stack = Domain.DLS.get stack_key in
  let fr = { start = Unix.gettimeofday (); child_s = 0.0 } in
  Stack.push fr stack;
  Fun.protect
    ~finally:(fun () ->
      ignore (Stack.pop stack : frame);
      (* Clamp: gettimeofday is not strictly monotonic, and a child's
         rounded-up elapsed must never drive the parent's self negative. *)
      let elapsed = Float.max 0.0 (Unix.gettimeofday () -. fr.start) in
      (match Stack.top_opt stack with
      | Some parent -> parent.child_s <- parent.child_s +. elapsed
      | None -> ());
      let self = Float.max 0.0 (elapsed -. fr.child_s) in
      record ~name ~elapsed ~self)
    f

let snapshot () =
  Mutex.protect mutex (fun () ->
      Hashtbl.fold (fun _ s acc -> s :: acc) table [])
  |> List.sort (fun a b -> String.compare a.name b.name)

(* talint: allow U001 — tests reset span state between cases *)
let reset () = Mutex.protect mutex (fun () -> Hashtbl.reset table)
