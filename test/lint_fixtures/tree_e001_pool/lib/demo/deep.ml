exception Boom

let boom_if n = if n > 3 then raise Boom else n
