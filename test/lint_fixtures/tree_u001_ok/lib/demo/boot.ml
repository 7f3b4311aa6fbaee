let () = ignore (Api.from_init 0)
