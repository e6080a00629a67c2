module W = Sun_tensor.Workload

type dim = W.dim

type reuse_kind = Full | Partial

type signature = (string * reuse_kind) list

(* Rich signature used internally: per operand, the set of suffix loops
   granting full reuse and whether a sliding-window loop grants partial
   reuse. Fig 4's pruning needs the dim sets: xxCR (ofmap reused across R
   and C) strictly dominates xxxC (ofmap reused across C only). *)
type rich = (string * (dim list * bool)) list

type candidate = {
  order : dim list;
  suffix : dim list;
  signature : signature;
  reused_operands : string list;
}

type stats = { nodes_visited : int; nodes_pruned : int }

(* Each operand's name with its indexing and sliding-window dims, as
   [W.indexing_dims] and [W.sliding_dims] give them: computed once per
   trie rather than once per operand per suffix dim. *)
type dim_sets = (string * dim list * dim list) list

let dim_sets w : dim_sets =
  List.map (fun (op : W.operand) -> (op.W.name, W.indexing_dims op, W.sliding_dims op)) w.W.operands

(* Mirror of the cost model's refill scan: walk the suffix innermost-first
   per operand, absorbing non-indexing loops (full reuse) and at most one
   sliding-window loop (partial reuse). *)
let rich_signature (sets : dim_sets) suffix : rich =
  let operand_entry (name, indexing, sliding) =
    let rec scan full = function
      | [] -> (full, false)
      | d :: rest ->
        if not (List.mem d indexing) then scan (d :: full) rest
        else if List.mem d sliding then (full, true)
        else (full, false)
    in
    let full, partial = scan [] suffix in
    if full = [] && not partial then None else Some (name, (List.sort String.compare full, partial))
  in
  List.sort compare (List.filter_map operand_entry sets)

let suffix_signature w suffix =
  List.concat_map
    (fun (op, (full, partial)) ->
      (if full <> [] then [ (op, Full) ] else []) @ if partial then [ (op, Partial) ] else [])
    (rich_signature (dim_sets w) suffix)
  |> List.sort compare

(* [leq a b]: every reuse in [a] is matched or exceeded in [b]. *)
let leq (a : rich) (b : rich) =
  List.for_all
    (fun (op, (dims_a, partial_a)) ->
      match List.assoc_opt op b with
      | None -> dims_a = [] && not partial_a
      | Some (dims_b, partial_b) ->
        List.for_all (fun d -> List.mem d dims_b) dims_a && ((not partial_a) || partial_b))
    a

let lt a b = leq a b && not (leq b a)

let all_orders_count w =
  let n = List.length (W.dim_names w) in
  let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
  fact n

let candidates_with_stats w =
  let dims = W.dim_names w and sets = dim_sets w in
  let visited = ref 0 and pruned = ref 0 in
  let leaves = ref [] in
  let emit suffix rich =
    let outer = List.filter (fun d -> not (List.mem d suffix)) dims in
    let order = outer @ List.rev suffix in
    let signature =
      List.concat_map
        (fun (op, (full, partial)) ->
          (if full <> [] then [ (op, Full) ] else []) @ if partial then [ (op, Partial) ] else [])
        rich
      |> List.sort compare
    in
    let reused_operands =
      List.sort String.compare
        (List.filter_map (fun (op, (full, _)) -> if full <> [] then Some op else None) rich)
    in
    leaves := { order; suffix; signature; reused_operands } :: !leaves
  in
  let rec expand suffix rich remaining =
    incr visited;
    let children =
      List.filter_map
        (fun d ->
          let suffix' = suffix @ [ d ] in
          let rich' = rich_signature sets suffix' in
          (* Principle 3: extend only if the added loop gains reuse *)
          if lt rich rich' then Some (d, suffix', rich') else None)
        remaining
    in
    pruned := !pruned + (List.length remaining - List.length children);
    (* sibling subsumption: drop children dominated by another sibling *)
    let indexed = List.mapi (fun j c -> (c, j)) children in
    let survivors =
      List.filteri
        (fun i (_, _, si) ->
          not
            (List.exists
               (fun ((_, _, sj), j) -> i <> j && (lt si sj || (leq si sj && leq sj si && j < i)))
               indexed))
        children
    in
    pruned := !pruned + (List.length children - List.length survivors);
    if survivors = [] then emit suffix rich
    else
      List.iter
        (fun (d, suffix', rich') ->
          expand suffix' rich' (List.filter (fun d' -> d' <> d) remaining))
        survivors
  in
  expand [] [] dims;
  (* global dedup: cousins like xxAB / xxBA share signature and suffix set *)
  let key c = (c.signature, List.sort String.compare c.suffix) in
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun c ->
        let k = key c in
        if Hashtbl.mem seen k then begin
          incr pruned;
          false
        end
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (List.rev !leaves)
  in
  (unique, { nodes_visited = !visited; nodes_pruned = !pruned })

let candidates w = fst (candidates_with_stats w)
