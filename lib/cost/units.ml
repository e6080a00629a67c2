type energy
type access
type op
type word
type 'c count
type 'c rate
type 'u t = float

(* The wrappers are compiler primitives, not functions: across module
   boundaries (where [@inline] does nothing without flambda) an application
   still compiles to the raw float instruction, so the cost model's hot path
   pays nothing for the unit discipline. The .mli repeats the [external]
   declarations — both sides must agree for the primitive to survive. *)
external pj : float -> energy t = "%identity"
external count : float -> 'c count t = "%identity"
external rate : float -> 'c rate t = "%identity"
external to_float : 'u t -> float = "%identity"

let zero = 0.0

external ( +: ) : 'u t -> 'u t -> 'u t = "%addfloat"
external ( -: ) : 'u t -> 'u t -> 'u t = "%subfloat"
external scale : float -> 'u t -> 'u t = "%mulfloat"

let[@inline] halve x = x /. 2.0

external charge : 'c count t -> 'c rate t -> energy t = "%mulfloat"

let sum a = Array.fold_left ( +. ) 0.0 a
let[@inline] max a b = Float.max a b
let[@inline] gt a b = a > b

module Arr = struct
  type 'u arr = floatarray

  let make n = Float.Array.make n 0.0

  external get : 'u arr -> int -> 'u t = "%floatarray_safe_get"
  external set : 'u arr -> int -> 'u t -> unit = "%floatarray_safe_set"

  external unsafe_set : 'u arr -> int -> 'u t -> unit = "%floatarray_unsafe_set"

  (* a manual store loop: [Float.Array.fill] is a C call, and the scratch
     arrays this zeroes sit on the per-candidate path *)
  let fill a =
    for i = 0 to Float.Array.length a - 1 do
      unsafe_set a i 0.0
    done

  let length = Float.Array.length

  let sum a =
    let n = Float.Array.length a in
    let rec go i acc =
      if i >= n then acc else go (i + 1) (acc +. Float.Array.unsafe_get a i)
    in
    go 0 0.0
end
