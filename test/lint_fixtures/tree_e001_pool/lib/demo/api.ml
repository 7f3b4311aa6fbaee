let pair n = Exec.Pool.both (fun () -> Deep.boom_if n) (fun () -> 2 * n)
