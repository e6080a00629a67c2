(** The search's incumbent, and the whole seeded fork: the transferred
    seed, the best enumerated mapping kept beside it, the pruning margin
    applied once the seed is displaced, and the second refinement from the
    enumeration's best. An unseeded search uses only [best] and [alpha].

    The incumbent is scored on the allocation-free path, built as a
    [Mapping.t] and fully evaluated once, at the end of the search. *)

type t = private {
  mutable best : (Sun_mapping.Mapping.Rows.t * Sun_cost.Model.score) option;
  mutable alpha : float;
      (** the EDP an admissible prefix bound must exceed to prune: [best]'s,
          times the pruning margin once a transferred seed has been
          displaced; [infinity] with no incumbent. A field, so the bound
          test reads it without a call *)
  mutable best_is_seed : bool;
      (** the incumbent is still the transferred seed: no enumerated
          candidate has displaced it *)
  mutable best_alt : (Sun_mapping.Mapping.Rows.t * Sun_cost.Model.score) option;
      (** the best {e enumerated} mapping, tracked only when seeded *)
  mutable seeded : int;  (** transferred seeds installed as the incumbent *)
  mutable seed_rejected : int;  (** transferred seeds that failed to build or score *)
  mutable seed_edp : float;  (** EDP of the installed seed, for the alpha ratio *)
}

val create : unit -> t

val improves : t -> Sun_cost.Model.score -> bool
(** Would the score take the incumbent's slot, or when seeded the best
    enumerated mapping's? *)

val adopt : t -> Sun_mapping.Mapping.Rows.t -> Sun_cost.Model.score -> unit
(** Install copies of the rows and score in every slot the score
    {!improves}. *)

val score :
  Search_state.t -> t -> Sun_mapping.Mapping.Rows.t -> Sun_cost.Model.score option
(** Score a structurally complete candidate and {!adopt} it where it
    improves. Rows failing [Mapping.make]'s rules and cost-model
    rejections are counted in the search state, never swallowed: a
    mapspace bug must look different from legitimate pruning in the
    stats. The injection hook corrupts the first candidate scored. *)

val install_seed : Search_state.t -> t -> Sun_mapping.Mapping.level_mapping list -> unit
(** Install a transferred mapping as the initial incumbent, so the very
    first alpha-beta tests already have a finite alpha. A seed that fails
    to build or score is counted in [seed_rejected] and dropped. *)

val refine_search : Search_state.t -> t -> unit
(** The post-search refinement: hill-climb the incumbent, and when a seed
    survived the search, also the enumeration's best, keeping the better
    endpoint. *)

val flush_telemetry : t -> unit
(** The [transfer.*] counters and the [transfer.alpha_ratio] histogram. *)
