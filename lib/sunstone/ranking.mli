(** Lazy ranking: items popped one at a time in ascending order of a float
    key, so a caller that needs only the first few of many items pays for
    those, not for a full sort.

    Items are ints. Two items with equal keys ([Float.compare]) come out
    in ascending item order, so items given in ascending order come out
    in exactly the order a stable sort by key would put them. The heap's
    array is kept and reused by the next {!start}. *)

type t

val create : unit -> t

val start : t -> float array -> int array -> int -> unit
(** [start t key items n] ranks [items.(0 .. n-1)], each by [key.(item)].
    [key] is read, never copied: it must not change until the last {!pop}
    of this ranking. *)

val pop : t -> int
(** The next item in rank order, or [-1] once every item has been popped. *)
