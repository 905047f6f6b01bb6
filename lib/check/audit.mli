(** Tcache invariant auditor.

    After any state-changing controller operation the translation cache
    must satisfy a set of structural invariants; this module checks all
    of them against the encoded words actually present in client
    memory:

    - resident blocks lie inside the code area and never overlap;
    - the tcache map agrees exactly with the set of resident blocks;
    - the tcache's owner index names, for every word, the resident
      block covering it (and no block for any other word), and its
      running occupancy counter equals the fold over resident blocks
      and stub areas;
    - every pinned id names a resident block;
    - every recorded incoming pointer either still holds its revert
      word or decodes to a branch aiming at its target block;
    - every exit stub of a live block is in its miss state (trapping,
      with a consistent branch island) or patched at a resident target
      that has the site recorded;
    - conversely, every encoded branch leaving a block lands on a block
      start and is recorded there as an incoming pointer (completeness
      — this is the direction that catches records that were never
      made);
    - every trap word names a stub its block owns;
    - persistent return stubs agree with the return-stub table and are
      either trapping or specialised at a recorded resident target;
    - stub-table accounting balances: live + free = allocated, no stub
      is both live and free, and [Controller.metadata_bytes] matches a
      recomputation. *)

type violation = { invariant : string; detail : string }

exception Audit_failure of violation list

val pp_violation : Format.formatter -> violation -> unit

val run : Softcache.Controller.t -> violation list
(** All violations found in the controller's current state; [[]] when
    the cache is consistent. *)

val check_exn : Softcache.Controller.t -> unit
(** @raise Audit_failure if {!run} reports anything. *)

val install : Softcache.Controller.t -> int ref
(** Attach the auditor to [Controller.on_event] (chaining any existing
    subscriber) so the full invariant suite runs after every
    translation, eviction, patch, invalidation and flush. Returns the
    audit counter. *)

val install_if_configured : Softcache.Controller.t -> int ref option
(** [install] if the controller's [Config.audit] flag is set. *)

val fleet : Fleet.t -> violation list
(** Audit a whole fleet: the shared chunk cache respects its bound (and
    is empty when dedup is off); request conservation holds at the MC
    ([attempts = frames + piggybacked + coalesced], with the per-session
    counters summing to the MC's); the shared link minted exactly one
    message per dispatched frame plus fault-injected duplicates (none
    for piggybacks or coalesced joins); no session holds — resident or
    staged — a chunk it never requested {e or that falls outside its
    own workload's text segment} (the mixed-workload isolation check);
    and every session passes the full per-controller audit ({!run}) —
    or, for multi-hart sessions, the full {!shards} audit — reported
    with a ["fleet-session"] prefix. *)

val shards : Softcache.Shard.t -> violation list
(** Audit a multi-hart (sharded) session at a quiescent point (between
    {!Softcache.Shard.run} calls): no two resident blocks map the same
    backing chunk; every fill has a single in-range owner, in-flight
    fills carry no completion stamp and none remain in flight; the
    suspension-lease discipline holds (every non-halted hart parked
    inside a resident block holds exactly one lease on that block,
    halted harts hold none, and the tcache's per-block lease counts
    equal the per-hart leases block by block); every hart's cycle
    ledger conserves ([h_run + h_wait_fill + h_wait_mc = cycles]) and
    the aggregate fill statistics are the exact sums of the hart
    ledgers; the policy's per-hart touch attribution names only real
    harts. Includes the full per-controller audit ({!run}) of the
    shared cache. *)

val shards_exn : Softcache.Shard.t -> unit
(** @raise Audit_failure if {!shards} reports anything. *)
