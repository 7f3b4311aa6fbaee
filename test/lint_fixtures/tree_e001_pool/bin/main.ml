let () = ignore (Demo.Api.pair 1)
