let () = ignore (Demo.Api.used 1)
