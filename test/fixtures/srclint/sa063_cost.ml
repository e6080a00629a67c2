(* Fixture: SA063 hashtbl-iteration hazards in cost-model code.
   Never compiled; lexed by the linter only.

   The cost model and its footprint probes (lib/cost) keep hashtables,
   so lib/cost is in SA063's scope alongside lib/serve: any Hashtbl.iter /
   Hashtbl.fold over such a table would make output depend on bucket
   order. This file stages three such hazards under a lib/cost path. *)

let dump_memo buf tbl =
  (* hazard 1: iteration order leaks into rendered output *)
  Hashtbl.iter (fun key fp -> Buffer.add_string buf (key ^ string_of_float fp)) tbl

let sum_memo tbl =
  (* hazard 2: fold order is bucket order; float addition is not
     associative, so the sum depends on it *)
  Hashtbl.fold (fun _ fp acc -> acc +. fp) tbl 0.0

let keys_memo tbl =
  (* hazard 3: collecting keys by iteration yields a bucket-ordered list *)
  let acc = ref [] in
  Hashtbl.iter (fun k _ -> acc := k :: !acc) tbl;
  !acc
