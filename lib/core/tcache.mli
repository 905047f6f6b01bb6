(** Translation-cache bookkeeping (the CC side's data structures).

    Tracks the tcache region of client memory: which translated blocks
    occupy it, the tcache map from virtual chunk addresses to physical
    tcache addresses (the paper's hash table, Figure 4), the FIFO
    allocation order, incoming patched pointers per block (recorded "at
    the time they are created" so that eviction can unlink a block), and
    the landing pads that may be live in return addresses.

    Each allocation arena is split in two: translated blocks are
    allocated upward from its base with a circular (FIFO) sweep;
    persistent return stubs grow downward from its top and survive
    block eviction. A sharded tcache ({!create_sharded}) partitions the
    region into [K] such arenas with a deterministic {!home_shard}
    routing of chunks to arenas; the tcache *map* stays global, so a
    lookup finds a block regardless of which shard holds it
    (cross-shard lookup). This module only does bookkeeping; the
    controller performs the actual memory writes.

    On top of pins, the multi-hart controller takes {e read leases} on
    blocks that suspended harts are executing inside: a leased block is
    an immovable obstacle for the allocation sweep exactly like a
    pinned one, but leases are dropped by flushes and invalidation
    (those writers assert exclusive hold and the parked harts are
    redirected through resume addresses).

    Two structures keep the miss path's cost proportional to the chunk
    being placed rather than to the number of resident blocks. An
    {e owner index} holds one slot per tcache word naming the resident
    block that covers it (a shared sentinel marks a free word), kept
    by {!register}, {!remove} and {!reset}: a placement finds its
    victims by reading only the words it runs over, and reports them
    lowest address first. A running {e code-bytes counter}, kept by the
    same three operations, makes {!occupied_bytes} an O(shards) read.
    [Check.Audit] checks both against the resident set. *)

type incoming = {
  from_block : int;  (** block id containing the site; -1 = persistent *)
  site_paddr : int;
  revert_word : int;  (** word restoring the site to its miss stub *)
}

type block = {
  id : int;
  vaddr : int;  (** chunk start in the original program *)
  paddr : int;  (** placement in the tcache *)
  words : int;  (** emitted size *)
  orig_words : int;  (** source footprint, for invalidation by range *)
  mutable incoming : incoming list;
  pads : (int * int) list;  (** (pad paddr, return vaddr) *)
  resume : int array;
      (** per emitted word: the source vaddr execution resumes at if a
          CPU is parked on that word when the block dies *)
  stubs : int list;
      (** stub-table indices allocated for this block's sites; recycled
          by the controller when the block is evicted, keeping CC
          metadata bounded by residency rather than by run length *)
}

type t

val create : base:int -> bytes:int -> t
(** A single-arena (unsharded) tcache — [create_sharded ~shards:1]. *)

val create_sharded : shards:int -> base:int -> bytes:int -> t
(** Partition [bytes] into [shards] equal arenas. Each arena has its
    own sweep pointer and persistent-stub area; the vaddr map is
    global.
    @raise Invalid_argument on [shards < 1], an unaligned base, or a
    region too small to give every shard a useful arena. *)

val base : t -> int
(** Physical base of the tcache region. *)

val top : t -> int
(** One past the end of the tcache region. *)

val shards : t -> int
(** Number of arenas (1 for an unsharded tcache). *)

val home_shard : t -> int -> int
(** [home_shard t vaddr] — the shard whose arena the chunk at [vaddr]
    is placed in. Deterministic pure routing. *)

val shard_of_paddr : t -> int -> int
(** Which shard's arena contains this physical tcache address.
    @raise Invalid_argument outside [\[base, top)]. *)

val shard_bounds : t -> int -> int * int
(** [\[lo, top)] extent of one shard's arena. *)

val lookup : t -> int -> block option
(** tcache-map probe by chunk virtual address (global across shards). *)

val find_by_id : t -> int -> block option
val is_alive : t -> int -> bool
val register : t -> block -> unit
val blocks : t -> block list
(** All resident blocks, unordered. *)

val resident_blocks : t -> int
val occupied_bytes : t -> int
(** Blocks plus persistent stubs, summed across shards. Reads the
    running code-bytes counter: O(shards). *)

val map_entries : t -> int

val block_at : t -> int -> block option
(** The resident block covering the word at [paddr], if any (an owner
    index read: O(1)). [None] outside [\[base, top)]. *)

val owner_runs : t -> (int * int * int) list
(** The owner index as maximal runs [(lo, hi, id)] of words naming the
    same block, lowest address first, covering [\[base, top)]; [id] is
    [-1] for a run of free words (for invariant auditing). *)

val corrupt_owner : t -> int -> block option -> unit
(** Test hook: overwrite the owner index slot of the word at [paddr]
    ([None] marks it free) without touching residency, seeding the
    inconsistency the auditor must report.
    @raise Invalid_argument outside [\[base, top)]. *)

val alloc_fifo :
  ?shard:int ->
  t ->
  words:int ->
  (int * block list, [ `Full | `Too_large ]) result
(** Allocate with the circular FIFO sweep of [shard] (default 0).
    Returns the placement and the blocks that had to be evicted
    (already deregistered), lowest address first. [`Too_large] means
    the chunk exceeds the arena's capacity outright; [`Full] means it
    would fit an empty arena but pinned or leased blocks crowd out
    every placement. *)

val alloc_seeded :
  ?shard:int ->
  t ->
  seed:int ->
  words:int ->
  (int * block list, [ `Full | `Too_large ]) result
(** Like {!alloc_fifo}, but restart the circular sweep at [seed] — the
    physical address of a victim block chosen by a replacement policy —
    so the placement reclaims that block first. A [seed] outside the
    shard's current code area is ignored (the sweep continues where it
    was), degrading gracefully to FIFO for this allocation. *)

val alloc_ptr : ?shard:int -> t -> int
(** Current position of the shard's circular allocation sweep
    (diagnostic; also used by tests that emulate pathological stub
    growth). *)

val alloc_append : ?shard:int -> t -> words:int -> (int, [ `Full | `Too_large ]) result
(** Allocate without evicting (flush-all policy): fail when the sweep
    pointer cannot fit the block before the persistent region. Skips
    over pinned and leased blocks left behind by a flush. *)

val persist_base : ?shard:int -> t -> int
(** Lower bound of the shard's persistent stub area — block placements
    in that shard must end at or below it. *)

val alloc_persistent :
  ?shard:int -> t -> words:int -> (int * block list, [ `Too_large ]) result
(** Carve words off the top of the shard's arena for persistent return
    stubs, evicting any blocks the stub area grows over (leases do not
    protect against persistent growth — the writer holds the region
    exclusively and parked readers are redirected). *)

val pin : t -> block -> unit
(** Exempt a resident block from eviction and flushes. The allocator
    treats it as an immovable obstacle. No-op if not resident. *)

val unpin : t -> block -> unit
val is_pinned : t -> int -> bool
val pinned_blocks : t -> int

val pinned_ids : t -> int list
(** The raw pin set, for invariant auditing (every pinned id must name
    a resident block). *)

val lease : t -> block -> unit
(** Take one read lease on a resident block: a suspended hart is
    executing inside it, so the allocation sweep must not reclaim it.
    Counted — [lease] twice needs [release] twice. No-op if the block
    is not resident. *)

val release : t -> block -> unit
(** Drop one read lease (no-op below zero). *)

val lease_count : t -> int -> int
(** Outstanding read leases on a block id (0 when none). *)

val is_leased : t -> int -> bool
val leased_blocks : t -> int
(** Distinct block ids currently holding at least one lease. *)

val leased_ids : t -> int list
(** The raw lease set, for invariant auditing. *)

val remove : t -> block -> unit
(** Deregister one block (invalidation; also clears its pin and any
    leases). Its space is reclaimed when the FIFO sweep passes over
    it. *)

val reset : t -> block list
(** Flush: deregister every unpinned block, rewind every shard's FIFO
    sweep, and return the former residents. Pinned blocks and the
    persistent stub areas are preserved — return addresses saved on
    program stacks may reference the latter across flushes. All leases
    on flushed blocks are dropped (the flush holds every arena
    exclusively; parked harts are redirected by the controller). *)

val pp : Format.formatter -> t -> unit
