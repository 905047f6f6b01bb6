(** Deterministic seeded hart-interleaving scheduler.

    Picks which hart advances next from the set of runnable harts and
    their local cycle clocks. The pick is a pure function of the seed
    and the pick history: the same seed over the same sequence of
    runnable sets replays the same interleaving byte-identically —
    the property test_shard's schedule replay property pins down.

    The discipline is {e windowed min-clock}: the candidate set is
    every runnable hart whose clock is within [window] cycles of the
    laggard (the minimum clock), and the scheduler draws one of those
    pseudo-randomly. [window = 0] degenerates to strict min-clock
    (deterministic modulo id tie-break jitter), a large window to a
    free-for-all; a window around the scheduler quantum keeps hart
    clocks comparable as a global virtual time while still exploring
    interleavings. *)

type t

val create : ?window:int -> int -> t
(** [create ?window seed]. [window] defaults to [0]; negative windows
    are clamped to [0]. Any seed is valid (a zero seed is remapped
    internally — xorshift has no all-zero state). *)

val seed : t -> int
(** The creation seed (for replay and reporting). *)

val pick : t -> (int * int) list -> int
(** [pick t runnable] chooses a hart id from [runnable], a non-empty
    [(id, clock)] list. Candidates within [window] of the minimum
    clock are drawn from pseudo-randomly; ordering of the input list
    does not affect the choice (candidates are sorted internally).
    @raise Invalid_argument on an empty list. *)

val draws : t -> int
(** PRNG draws made so far (diagnostic). *)
