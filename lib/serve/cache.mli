(** Mapping cache: bounded in-memory LRU over an optional persistent store.

    Keys are request fingerprints ({!Fingerprint.request}); values are
    arbitrary JSON documents (in practice the pipeline's
    [{"v":1,"mapping":...,"cost":...}] records). Lookups hit the in-memory
    tier first, then — when a cache directory is configured — the disk tier
    (one [<fingerprint>.json] file per entry), promoting disk hits into
    memory.

    Disk entries are wrapped as [{"k":<exact key>,"d":<value>}]. The file
    name goes through a lossy sanitizer (every non-alphanumeric char maps
    to ['_']), so distinct keys — e.g. ["a/b"] and ["a_b"] — can share one
    file; the exact key stored inside the document disambiguates, and a
    lookup whose key does not match the document's ["k"] field is a miss
    counted under [stats.corrupt], never a wrong-value hit.

    Durability and robustness:
    - disk writes go through a temp file in the same directory that is
      flushed and [fsync]ed {e before} the atomic [rename], so a crashed or
      SIGKILLed writer — including a long-lived serving daemon killed
      mid-store — can never leave a half-written or truncated entry under
      its final name; temp names carry the writer pid, so multiple
      processes (e.g. parallel pipelines) sharing one cache directory never
      clobber each other's in-progress writes;
    - a failed write or rename removes its temp file before the failure is
      swallowed — an unwritable directory cannot accrete [*.tmp.<pid>]
      litter;
    - unreadable or unparsable entries (truncated files, wrong permissions,
      future formats) are treated as misses and counted in
      [stats.corrupt] — the cache never raises on a bad entry;
    - the cache directory is created on demand ([mkdir -p] semantics). *)

(** Counter invariants, which {!pp_stats} consumers and the accounting
    tests rely on:
    - every {!find} increments exactly one of [hits] or [misses], so
      [hits + misses] equals the total number of lookups;
    - [disk_hits <= hits]: a disk hit is still a hit;
    - [corrupt <= misses]: a corrupt disk entry yields nothing usable, so
      the lookup that tripped over it is {e also} counted as a miss —
      [corrupt] subdivides the misses, it is not a third outcome. *)
type stats = {
  hits : int;  (** lookups served from memory or disk *)
  misses : int;  (** lookups that found nothing usable *)
  evictions : int;  (** in-memory LRU evictions (disk entries persist) *)
  disk_hits : int;  (** subset of [hits] that were read from disk *)
  corrupt : int;  (** disk entries that existed but failed to parse; each
                      such lookup is counted in [misses] as well *)
  stores : int;  (** successful [store] calls *)
}

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] bounds the in-memory tier (default 256 entries, minimum 1).
    [dir] enables the persistent tier; omitted means memory-only. *)

val capacity : t -> int

val size : t -> int
(** Entries currently in the in-memory tier; always [<= capacity t]. *)

val dir : t -> string option

val find : t -> string -> Json.t option
(** [find t fingerprint] returns the cached document, refreshing its LRU
    position, or [None] on miss. Never raises. *)

val store : t -> string -> Json.t -> unit
(** Inserts (or refreshes) the entry in memory, evicting the least recently
    used entry if full, and persists it to disk when a directory is
    configured. Disk write failures (e.g. read-only media) are swallowed:
    the cache is an optimization, not a source of truth. *)

val nearest_many :
  ?exclude_bounds:int array -> t -> family:string -> bounds:int array -> k:int -> Json.t list
(** [nearest_many t ~family ~bounds ~k] returns up to [k] in-memory
    documents of the same shape family ({!Fingerprint.structural}), the
    closest stored structural ["bounds"] vector to [bounds] first (sum of
    per-dim [|ln(b/b')|]); [[]] when the family has no cached member.
    [exclude_bounds] drops members whose bounds vector equals it exactly —
    benchmarks measuring cross-layer transfer use it to keep a layer from
    seeding itself with its own cached result. Only documents carrying
    ["family"]/["bounds"] fields participate (the pipeline stores them;
    see {!Transfer}), and {!Transfer} scores each candidate's rescaled
    seed with the cost model and keeps the cheapest: bounds distance is
    only a proxy for how well a neighbor's mapping survives rescaling.
    This is a read-only probe: it touches neither the hit/miss counters
    nor the LRU order, and ties break deterministically on the entry key,
    so results are independent of hash-table iteration order. Disk-only
    entries are not scanned; they join the index when a {!find} promotes
    them. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
