(* The bottom-up search (Section V-A): level passes from the innermost
   boundary outward, each enumerating its prefixes' candidates
   ({!Enumeration}), then bounding and scoring them one by one and keeping
   the beam. The per-candidate loop is all here: [examine],
   [load_candidate], [bound_prunes], [compute_outcome] and [replay]. *)

module S = Search_state
module E = Enumeration
module Rows = Sun_mapping.Mapping.Rows
module Model = Sun_cost.Model

let load_prefix (b : E.buf) p =
  let r = b.prefixes.(p) in
  let nl = Array.length r.Rows.temporal in
  Array.blit r.Rows.temporal 0 b.load.Rows.temporal 0 nl;
  Array.blit r.Rows.spatial 0 b.load.Rows.spatial 0 nl;
  Array.blit r.Rows.order 0 b.load.Rows.order 0 nl;
  Array.blit r.Rows.temporal 0 b.completed.Rows.temporal 0 (nl - 1);
  b.completed.Rows.temporal.(nl - 1) <- b.top_row;
  b.loaded <- p

(* Swap candidate [i]'s rows into [b.load]: the prefix's rows are copied
   once per prefix, the candidate's three by pointer. *)
(* sunstone-hot *)
let load_candidate (b : E.buf) ~k i =
  let g = b.c_group.(i) in
  let p = b.g_prefix.(g) in
  if p <> b.loaded then load_prefix b p;
  if k > 0 then begin
    b.load.Rows.temporal.(k - 1) <- b.g_tile.(g);
    b.completed.Rows.temporal.(k - 1) <- b.g_tile.(g)
  end;
  b.load.Rows.spatial.(k) <- b.g_spatial.(g);
  let o = b.c_order.(i) in
  if o >= 0 then b.load.Rows.order.(k) <- b.orders.(o)

(* The loaded candidate's naive completion, into [b.top_row]: true when
   every dim's placed product divides its bound. *)
let complete (st : S.t) (b : E.buf) = Rows.complete_into ~bounds:st.bounds b.load b.top_row

(* Alpha-beta (Section V-C): prune a prefix whose optimistic EDP — the
   product of {!Model.prefix_lower_bounds_rows}' energy and cycles bounds —
   already exceeds the incumbent's alpha. Both bounds are admissible, so
   against an unseeded incumbent the test never cuts a prefix holding a
   better completion ([sunstone audit]'s bound chain pins this).
   Bottom-up the test is sharp: with high reuse most of the energy is
   charged at the lowest levels, so the committed energy sits close to
   the final energy. The bound's EDP is kept in verdict slot [v];
   computing it loads [b.load] into the model's layout. *)
(* sunstone-hot *)
let bound_prunes (st : S.t) (inc : Incumbent.t) (b : E.buf) ~fixed_levels v =
  st.cfg.alpha_beta
  &&
  match inc.best with
  | None -> false
  | Some _ ->
    if Float.is_nan b.v_bound.(v) then begin
      let lb = Model.prefix_lower_bounds_rows st.ctx ~fixed_levels b.load in
      b.v_bound.(v) <- lb.Model.lb_energy_pj *. lb.Model.lb_cycles;
      b.bounded <- true
    end;
    let prunes = b.v_bound.(v) > inc.alpha in
    if prunes then st.pruned <- st.pruned + 1;
    prunes

(* The loaded candidate's outcome, into verdict slot [v]: the row check,
   then the score of its naive completion. The check is the one
   [Rows.valid] makes of the completed rows: the group's rows were checked
   when it was added, and the completion checks its products. When this
   [examine] call computed the bound, the model's layout already holds
   [b.load], and the score replaces only its top temporal row. *)
(* sunstone-hot *)
let compute_outcome (st : S.t) (b : E.buf) g v =
  if not (b.g_ok.(g) && complete st b) then b.v_outcome.(v) <- Build_error
  else
    match
      if b.bounded then Model.score_with_top st.ctx b.top_row
      else Model.score_rows st.ctx b.completed
    with
    | Error _ -> b.v_outcome.(v) <- Eval_error
    | Ok s ->
      b.v_energy.(v) <- s.Model.s_energy_pj;
      b.v_cycles.(v) <- s.Model.s_cycles;
      b.v_edp.(v) <- s.Model.s_edp;
      b.v_outcome.(v) <- Scored

(* A scored candidate the incumbent adopts: its own completion, since its
   verdict may be another member's. Rare, so off the hot path. *)
(* sunstone-cold *)
let adopt_candidate st inc b s =
  ignore (complete st b);
  Incumbent.adopt inc b.E.completed s

let add_scored (b : E.buf) i (s : Model.score) =
  b.c_key.(i) <- s.Model.s_edp;
  b.scored.(b.nscored) <- i;
  b.nscored <- b.nscored + 1

(* Candidate [i] takes the outcome in verdict slot [v]: the counts and the
   incumbent update of scoring it, with the score a fresh computation
   would give. *)
(* sunstone-hot *)
let replay (st : S.t) inc (b : E.buf) i v =
  match b.v_outcome.(v) with
  | Unknown -> ()
  | Build_error -> st.build_errors <- st.build_errors + 1
  | Eval_error ->
    st.evaluated <- st.evaluated + 1;
    st.eval_errors <- st.eval_errors + 1
  | Scored ->
    st.evaluated <- st.evaluated + 1;
    let s = b.replayed in
    s.Model.s_energy_pj <- b.v_energy.(v);
    s.Model.s_cycles <- b.v_cycles.(v);
    s.Model.s_edp <- b.v_edp.(v);
    if Incumbent.improves inc s then adopt_candidate st inc b s;
    add_scored b i s

(* The injection hook takes the first candidate a search scores. It is
   scored as a real [Rows.t] through [Incumbent.score], and its verdict is
   its own: the corrupted rows are no other member's. *)
(* sunstone-cold *)
let score_injected st inc (b : E.buf) i =
  ignore (complete st b);
  Option.iter (add_scored b i) (Incumbent.score st inc b.completed)

(* Bound, then score, candidate [i] of pass [k]. *)
(* sunstone-hot *)
let examine (st : S.t) inc (b : E.buf) ~k i =
  load_candidate b ~k i;
  b.bounded <- false;
  let g = b.c_group.(i) in
  let v =
    if b.shares.(b.g_prefix.(g)) then b.g_canon.(g) + 1
    else begin
      E.clear_verdict b 0;
      0
    end
  in
  if not (bound_prunes st inc b ~fixed_levels:k v) then
    match st.inject with
    | Corrupt_first_build -> score_injected st inc b i
    | No_injection ->
      (match b.v_outcome.(v) with
      | Unknown -> compute_outcome st b g v
      | Build_error | Eval_error | Scored -> st.shared_verdicts <- st.shared_verdicts + 1);
      replay st inc b i v

(* The candidate's rows, built for a beam survivor. *)
let candidate_rows (b : E.buf) ~k i =
  let g = b.c_group.(i) and o = b.c_order.(i) in
  let prefix = b.prefixes.(b.g_prefix.(g)) in
  {
    Rows.temporal =
      (if k > 0 then S.set prefix.Rows.temporal (k - 1) b.g_tile.(g) else prefix.Rows.temporal);
    spatial = S.set prefix.Rows.spatial k b.g_spatial.(g);
    order = (if o >= 0 then S.set prefix.Rows.order k b.orders.(o) else prefix.Rows.order);
  }

(* Score the pass's candidates by their naive completion and keep the
   beam. The naive completion is a poor predictor of how a
   spatial-unrolling style plays out at the upper levels, so the beam is
   diversity-preserving: the best candidate of every distinct spatial
   signature is seated first, and the remaining slots go to the global
   ranking. The incumbent tightens mid-pass and feeds the alpha-beta test
   of the next candidate, so candidates are bounded and scored one by one,
   in candidate order. *)
let select_beam (st : S.t) inc (b : E.buf) ~k =
  b.nscored <- 0;
  b.loaded <- -1;
  for i = 0 to b.ncand - 1 do
    examine st inc b ~k i
  done;
  (* a candidate's spatial signature: every level's spatial factors *)
  let signatures = S.Int_table.create 64 in
  let spatial i l =
    let g = b.c_group.(i) in
    if l = k then b.g_spatial.(g) else b.prefixes.(b.g_prefix.(g)).Rows.spatial.(l)
  in
  let n = Array.length b.load.Rows.spatial in
  let new_signature i = Option.is_none (S.find_twin signatures ~n ~row:spatial i) in
  (* The first candidate of each signature in rank order, until the beam
     is full; only if every signature is seated with room left does the
     rest of the ranking fill it. The ranking is by (EDP, candidate
     index), the order a stable sort of the scored candidates gives, and
     lazy: the candidates are popped only until the beam is seated, or
     all of them when the rest must fill it. *)
  Ranking.start b.ranking b.c_key b.scored b.nscored;
  let beam = st.cfg.beam_width in
  let kept = ref [] and nkept = ref 0 and npopped = ref 0 and more = ref true in
  while !nkept < beam && !more do
    let i = Ranking.pop b.ranking in
    if i < 0 then more := false
    else begin
      let seat = new_signature i in
      b.popped.(!npopped) <- i;
      b.seated.(!npopped) <- seat;
      incr npopped;
      if seat then begin
        kept := i :: !kept;
        incr nkept
      end
    end
  done;
  let j = ref 0 in
  while !nkept < beam && !j < !npopped do
    if not b.seated.(!j) then begin
      kept := b.popped.(!j) :: !kept;
      incr nkept
    end;
    incr j
  done;
  List.rev_map (candidate_rows b ~k) !kept

(* The lane pass, then one level pass per boundary outward, each on the
   beam the one before it kept (or on its own prefixes when it kept
   none). *)
let run st inc =
  let b = E.create st (S.order_candidates st) in
  let top = Sun_arch.Arch.num_levels st.arch - 1 in
  let start = [ S.initial_rows st ] in
  E.start_pass b ~k:0 ~top start;
  E.add_lane_candidates st b;
  let after_lanes = select_beam st inc b ~k:0 in
  let rec pass k prefixes =
    if k <= top then begin
      let enumerated = ref [] in
      E.start_pass b ~k ~top prefixes;
      let groups = Array.map (E.prefix_groups st b ~enumerated ~k) b.prefixes in
      let sum f = Array.fold_left (fun acc gs -> acc + f gs) 0 groups in
      E.reserve_groups b (sum (Array.fold_left (fun acc gs -> acc + Array.length gs) 0));
      E.reserve_candidates b (sum (E.candidate_count b));
      Array.iteri (E.add_prefix_candidates st b) groups;
      match select_beam st inc b ~k with [] -> pass (k + 1) prefixes | kept -> pass (k + 1) kept
    end
  in
  pass 1 (match after_lanes with [] -> start | _ -> after_lanes)
