module S = Search_state
module Rows = Sun_mapping.Mapping.Rows
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Tel = Sun_telemetry.Metrics

type t = {
  mutable best : (Rows.t * Model.score) option;
  mutable alpha : float;
  mutable best_is_seed : bool;
  mutable best_alt : (Rows.t * Model.score) option;
  mutable seeded : int;
  mutable seed_rejected : int;
  mutable seed_edp : float;
}

let create () =
  {
    best = None;
    alpha = infinity;
    best_is_seed = false;
    best_alt = None;
    seeded = 0;
    seed_rejected = 0;
    seed_edp = nan;
  }

(* A prefix with [edp_lb > incumbent * prune_margin] is cut once the seed
   has been displaced (see [alpha]). 0.8 is the empirical knee on the
   ResNet-18/Inception-v3 transfer benchmark: it cuts warm evaluations by
   a further ~6 points while every layer's final EDP stays equal or
   better than the cold search's; tighter margins (0.75 and below) start
   pruning subtrees holding small genuine improvements. *)
let prune_margin = 0.8

(* Install [best] and its alpha. Seeded-only pruning margin, gated on
   displacement: while the transferred seed is still the incumbent the
   alpha is its EDP, so the first enumerated improvement over the seed
   can never be margin-pruned — a seed that happens to sit within a few
   percent of the true optimum must not freeze the search at its own
   value. Once some candidate has displaced the seed, prefixes whose
   optimistic bound already lands within [prune_margin] of the incumbent
   are dropped: their best case is a marginal win, and spending full
   completions on them is where a warm search burns the evaluations the
   seed was meant to save. This is the one inadmissible rule; unseeded
   searches never use it. *)
let set_best inc best =
  inc.best <- best;
  inc.alpha <-
    (match best with
    | None -> infinity
    | Some (_, s) when inc.seeded > 0 && not inc.best_is_seed -> s.Model.s_edp *. prune_margin
    | Some (_, s) -> s.Model.s_edp)

(* Would a score take [slot]? *)
let beats slot (s : Model.score) =
  match slot with Some (_, b) -> not (b.Model.s_edp <= s.Model.s_edp) | None -> true

let improves inc s = beats inc.best s || (inc.seeded > 0 && beats inc.best_alt s)

(* Install rows [c] in the slots [s] improves: the incumbent, and when
   seeded the best {e enumerated} mapping, which is tracked separately
   because a transferred seed can be strong enough that no enumerated
   candidate ever displaces it, and the final refinement then never sees
   the enumeration's own best starting point. [c] may be a pass buffer's
   scratch rows and [s] the context-owned record [Model.score_rows]
   overwrites on the next call, so the slots keep copies. *)
let adopt inc (c : Rows.t) (s : Model.score) =
  let c =
    {
      Rows.temporal = Array.map Array.copy c.Rows.temporal;
      spatial = Array.map Array.copy c.Rows.spatial;
      order = Array.map Array.copy c.Rows.order;
    }
  in
  let alt = inc.seeded > 0 && beats inc.best_alt s in
  if beats inc.best s then begin
    inc.best_is_seed <- false;
    set_best inc (Some (c, Model.copy_score s))
  end;
  if alt then inc.best_alt <- Some (c, Model.copy_score s)

(* Breaking exact dim coverage (doubling one temporal factor) makes the
   row check reject the candidate, which on natural search paths never
   happens — every factor choice divides the bounds exactly. *)
let corrupt_first_build (c : Rows.t) =
  if Array.length c.Rows.temporal = 0 || Array.length c.Rows.temporal.(0) = 0 then c
  else begin
    let row = Array.copy c.Rows.temporal.(0) in
    row.(0) <- row.(0) * 2;
    { c with Rows.temporal = S.set c.Rows.temporal 0 row }
  end

let score (st : S.t) inc c =
  let c =
    match st.inject with
    | No_injection -> c
    | Corrupt_first_build ->
      st.inject <- No_injection;
      corrupt_first_build c
  in
  if not (Rows.valid ~bounds:st.bounds c) then begin
    st.build_errors <- st.build_errors + 1;
    None
  end
  else begin
    st.evaluated <- st.evaluated + 1;
    match Model.score_rows st.ctx c with
    | Error _ ->
      st.eval_errors <- st.eval_errors + 1;
      None
    | Ok s ->
      if improves inc s then adopt inc c s;
      Some s
  end

(* The seed comes from a *different* request's search, so a rejection
   here is the expected silent fallback, not a mapspace bug: it stays out
   of [build_errors]/[eval_errors] and the search proceeds from scratch
   exactly as if no seed had been offered. [Mapping.make] validates the
   levels, which then join the search as rows. *)
let install_seed (st : S.t) inc levels_list =
  match M.make st.w levels_list with
  | Error _ -> inc.seed_rejected <- inc.seed_rejected + 1
  | Ok m -> (
    let c = Rows.of_levels st.w m.M.levels in
    match Model.score_rows st.ctx c with
    | Error _ -> inc.seed_rejected <- inc.seed_rejected + 1
    | Ok s ->
      inc.seeded <- inc.seeded + 1;
      inc.seed_edp <- s.Model.s_edp;
      inc.best_is_seed <- true;
      set_best inc (Some (c, Model.copy_score s)))

(* Hill-climb around the incumbent: move one prime factor of one dimension
   between two temporal levels, or swap two adjacent loops in a level's
   order; accept any EDP improvement and repeat to a (bounded) fixpoint.
   This recovers the few-percent mappings that sit just outside the
   per-level reuse-dimension restriction. *)
let refine (st : S.t) inc =
  let nlevels = Sun_arch.Arch.num_levels st.arch in
  let primes_of f = List.map fst (Sun_util.Factor.prime_factorization f) in
  let try_improve c =
    st.examined <- st.examined + 1;
    ignore (score st inc c)
  in
  (* First-improvement hill-climb: every move is applied to the *current*
     incumbent, which [score] may have just replaced — the old round-start
     snapshot went stale the moment a move was accepted, and moves built
     from it both wasted evaluations on superseded neighborhoods and, when
     the snapshot's factor no longer divided the incumbent's, produced
     truncated products that [Mapping.make] rejected (silently inflating
     [build_errors]/[examined]). The prime lists still come from the
     round-start snapshot, so the divisibility pre-check below skips any
     move whose source factor has since moved away instead of building a
     broken candidate: refine contributes zero build errors by
     construction. *)
  let move_factor j p l l' =
    match inc.best with
    | None -> ()
    | Some (c, _) ->
      let t = c.Rows.temporal in
      let src = t.(l).(j) in
      if src > 1 && src mod p = 0 then begin
        let temporal = S.set t l (S.set t.(l) j (src / p)) in
        temporal.(l') <- S.set t.(l') j (t.(l').(j) * p);
        try_improve { c with Rows.temporal }
      end
  in
  let swap_order l i =
    match inc.best with
    | None -> ()
    | Some (c, _) ->
      let ord = c.Rows.order.(l) in
      if i + 1 < Array.length ord then begin
        let ord' = S.set ord i ord.(i + 1) in
        ord'.(i + 1) <- ord.(i);
        try_improve { c with Rows.order = S.set c.Rows.order l ord' }
      end
  in
  let ndims = Array.length st.dim_array in
  let edp () = match inc.best with Some (_, c) -> c.Model.s_edp | None -> infinity in
  let rec rounds n =
    let before = edp () in
    (match inc.best with
    | None -> ()
    | Some (c, _) ->
      let snapshot = c.Rows.temporal in
      (* factor moves between temporal levels *)
      for l = 0 to nlevels - 1 do
        for j = 0 to ndims - 1 do
          List.iter
            (fun p ->
              for l' = 0 to nlevels - 1 do
                if l' <> l then move_factor j p l l'
              done)
            (primes_of snapshot.(l).(j))
        done
      done;
      (* adjacent order swaps *)
      for l = 0 to nlevels - 1 do
        for i = 0 to ndims - 2 do
          swap_order l i
        done
      done);
    if n < 8 && edp () < before *. 0.9999 then rounds (n + 1)
  in
  rounds 1

let refine_search st inc =
  let seed_survived = inc.best_is_seed in
  (* captured before the refinement below: refining the seed scores
     seed-neighborhood mappings into [best_alt], which would overwrite
     the enumeration's best with a seed lookalike *)
  let enumerated_best = inc.best_alt in
  refine st inc;
  (* A seed no enumerated candidate displaced still gets refined above, but
     hill-climbing from the seed alone can strand the result at the seed's
     own local optimum while the unseeded search — refining from *its*
     winner — would have done better. Also refine from the enumeration's
     best and keep whichever endpoint wins. Together with the pruning
     margin this is heuristic: a seeded result is usually, not always, at
     least as good as the same search without the seed. *)
  match (seed_survived, inc.best, enumerated_best) with
  | true, Some (_, inc_s), Some (_, alt_s) when alt_s.Model.s_edp <= inc_s.Model.s_edp *. 1.5 ->
    (* only when the enumeration's endpoint is competitive (within 50%)
       with the refined seed: a far-worse endpoint rarely refines past the
       seed, and spending the transferred savings on its hill-climb would
       cancel the very reduction the seed bought *)
    let incumbent = inc.best in
    set_best inc enumerated_best;
    refine st inc;
    (match (incumbent, inc.best) with
    | Some (_, s0), Some (_, s1) when s0.Model.s_edp < s1.Model.s_edp -> set_best inc incumbent
    | _ -> ())
  | _ -> ()

(* transfer.* lives outside the optimizer.* namespace: seed availability
   depends on cross-request cache state, which the jobs-N counter-parity
   gates must not see *)
let flush_telemetry inc =
  if inc.seeded > 0 then Tel.count "transfer.seeded" inc.seeded;
  if inc.seed_rejected > 0 then Tel.count "transfer.seed_rejected" inc.seed_rejected;
  match inc.best with
  | Some (_, best) when inc.seeded > 0 && best.Model.s_edp > 0.0 ->
    (* >= 1.0: how much the search improved on the transferred alpha *)
    Tel.observe (Tel.histogram "transfer.alpha_ratio") (inc.seed_edp /. best.Model.s_edp)
  | _ -> ()
