let () = ignore (Demo.Api.entry 1 + Demo.Api.safe 2)
