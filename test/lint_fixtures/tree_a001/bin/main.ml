let () = ignore (Hot.step [ 1 ])
