(* srclint fixture: SA044 must fire on each partial function and escape
   hatch, and stay silent on a comment or string that names one. Never
   compiled; lexed by the linter only. *)

let first xs = List.hd xs

let must = function Some x -> x | None -> failwith "none"

let never () = assert false

(* List.tl and Option.get in a comment do not count *)
let label = "Obj.magic in a string does not count either"
