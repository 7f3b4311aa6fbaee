let () = print_endline (string_of_int (Demo.Api.from_example 1))
