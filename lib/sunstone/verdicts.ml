(* Open addressing with linear probing over a power-of-two slot array kept
   at most half full. A slot holds the key of a point that fits, [lnot] the
   key of one that does not, or [min_int] when empty; keys are below
   [max_int], so the three never collide and a probe reads one int. *)
type t = { mutable slots : int array; mutable count : int }

let empty = min_int

let create () = { slots = Array.make 64 empty; count = 0 }

let length t = t.count

(* Packed keys are sums of strides, so their low bits are far from
   uniform; a multiply-xorshift spreads them over the slots. *)
let home slots key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length slots - 1)

(* The slot holding [key], or the empty slot where it goes. *)
let rec slot slots key i =
  let s = Array.unsafe_get slots i in
  if s = empty || s = key || s = lnot key then i
  else slot slots key ((i + 1) land (Array.length slots - 1))

(* sunstone-hot *)
let find t key =
  let slots = t.slots in
  let s = Array.unsafe_get slots (slot slots key (home slots key)) in
  if s = empty then -1 else if s = key then 1 else 0

let grow t =
  let old = t.slots in
  (* sunstone-lint: allow SA070 amortized capacity doubling, sized by the points tested *)
  let slots = Array.make (2 * Array.length old) empty in
  for i = 0 to Array.length old - 1 do
    let s = Array.unsafe_get old i in
    if s <> empty then begin
      let key = if s >= 0 then s else lnot s in
      Array.unsafe_set slots (slot slots key (home slots key)) s
    end
  done;
  t.slots <- slots

(* sunstone-hot *)
let add t key fit =
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  let slots = t.slots in
  let i = slot slots key (home slots key) in
  if Array.unsafe_get slots i = empty then t.count <- t.count + 1;
  Array.unsafe_set slots i (if fit then key else lnot key)
