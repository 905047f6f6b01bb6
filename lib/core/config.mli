(** SoftCache configuration.

    Mirrors the knobs the paper's two prototypes differ on: chunk
    granularity (basic blocks on SPARC, procedures on ARM), the eviction
    policy and the interconnect. The cycle prices of the
    cache-controller operations are fixed constants (the cost model
    below). *)

type chunking =
  | Basic_block  (** SPARC prototype: translate one basic block at a time *)
  | Procedure
      (** ARM prototype: "code is chunked by procedures rather than by
          basic blocks" *)

type eviction =
  | Flush_all
      (** invalidate the whole tcache when full, the strategy of the
          dynamic rewriters the paper cites (Dynamo, Shade, Embra) *)
  | Fifo  (** evict oldest blocks in allocation order, one at a time *)
  | Lru
      (** evict the least-recently-*entered* block: recency is tracked
          over the block-entry events the controller already observes
          (translations, computed jumps, indirect calls, return stubs),
          so there is no per-instruction cost — the paper's "cache
          state encoded in the branches" *)
  | Rrip
      (** 2-bit re-reference interval prediction over the same observed
          entry events (in the spirit of TRRIP): blocks insert at RRPV
          2, reset to 0 on entry, and the victim is the max-RRPV block *)
  | Trrip
      (** temperature-aware RRIP: like [Rrip], but a profile-derived
          temperature oracle ([Controller.set_temperature_oracle]) sets
          the insertion RRPV per block — hot 0, warm 2, cold 3 — so
          profile-hot blocks survive the sweep before their first
          observed entry. With no oracle attached every block reads
          cold and the policy's decisions are exactly [Rrip]'s *)

val eviction_table : (string * eviction) list
(** The canonical name <-> policy mapping. The CLI [--eviction] enum,
    [pp], and the bench policy sweep are all generated from this table,
    so the valid-value set can never drift between them. *)

val eviction_name : eviction -> string
(** Flag-style name of a policy, per [eviction_table]. *)

val eviction_of_name : string -> eviction option

type granularity =
  | Block  (** cache units are chunker output (basic blocks / procedures) *)
  | Function
      (** cache units are whole functions: a CFG walk from the entry
          point closes over the contiguous body (fall-through closure),
          call sites are rewritten through a PLT-style indirection table
          owned by the controller, and returns need no patching. A
          function whose rewritten body cannot fit the tcache degrades
          to block granularity for that function only *)

val granularity_table : (string * granularity) list
(** Canonical name <-> granularity mapping, in the style of
    [eviction_table]: the CLI [--granularity] enum, [pp] and the bench
    gransweep grid are all generated from it. *)

val granularity_name : granularity -> string

val granularity_of_name : string -> granularity option

(** {1 Cost model}

    Cycle prices of the cache-controller and transport operations, one
    fixed price each, as the paper prices its prototypes, and the shard
    scheduler quantum. *)

val lookup_cycles : int
(** client cost of one tcache-map hash probe (ambiguous-pointer
    fallback) *)

val patch_cycles : int
(** client cost of rewriting one code word *)

val miss_fixed_cycles : int
(** fixed client-side bookkeeping per miss, on top of network and
    per-word costs *)

val translate_cycles_per_word : int
(** MC-side rewriting work, charged per emitted word; "could easily
    be reduced to near zero by more powerful MC systems" *)

val scrub_cycles_per_word : int
(** cost per stack word scanned when evicting live landing pads *)

val retry_backoff_cycles : int
(** base of the exponential backoff charged before retry [n]:
    [retry_backoff_cycles * 2^(n-1)] cycles *)

val timeout_cycles : int
(** cycles the CC waits before concluding a frame was dropped *)

val quantum : int
(** shard scheduler quantum: cycles a hart may advance before the
    scheduler re-picks *)

(** {1 Configuration} *)

type t = {
  tcache_bytes : int;  (** CC translation-cache memory, bytes *)
  tcache_base : int;  (** physical base of the tcache region *)
  chunking : chunking;
  eviction : eviction;
  net : Netmodel.t;
  max_retries : int;
      (** how many times the CC re-requests a chunk after a dropped or
          corrupted frame before declaring it unavailable *)
  audit : bool;
      (** run the [Check.Audit] tcache invariant auditor after every
          controller event (installed via [Check.Audit.install_if_configured];
          off by default, enabled in tests and by [--audit]) *)
  engine : Machine.Cpu.engine;
      (** CPU dispatch engine for the cached run: [Decoded] (default)
          fetches through the memory-coherent predecode cache;
          [Interpretive] re-decodes every fetch — kept for differential
          testing of the decode cache against reference dispatch *)
  prefetch_degree : int;
      (** on a miss, how many predicted-next chunks the MC ships in the
          same frame as the demand chunk (0 = prefetch off); the demand
          response amortizes [latency_cycles] and the per-message
          overhead across the batch *)
  staging_chunks : int;
      (** bound on the CC staging buffer holding prefetched chunks that
          have not been touched yet; oldest entries are discarded when
          the bound is hit *)
  granularity : granularity;
      (** caching unit size: [Block] (default) caches chunker output;
          [Function] caches whole functions behind a PLT-style
          indirection table (see {!granularity}). Incompatible with
          [Procedure] chunking — function mode already subsumes it *)
  harts : int;
      (** CPU hart contexts sharing this controller's tcache (default
          1 = the solo single-threaded CC of the paper). With more, the
          run is driven by the shard layer ([Softcache.Shard]): a
          deterministic seeded scheduler interleaves the harts, misses
          go through the explicit fill state machine, and duplicate
          misses coalesce onto in-flight fills *)
  shards : int;
      (** tcache arenas (default 1 = one shared arena). [K > 1]
          partitions the tcache into K arenas with deterministic
          home-shard chunk routing and a global (cross-shard) lookup
          map *)
  sched_seed : int;
      (** seed of the deterministic hart-interleaving scheduler; the
          same seed replays the same interleaving byte-identically *)
}

val make :
  ?tcache_bytes:int ->
  ?tcache_base:int ->
  ?chunking:chunking ->
  ?eviction:eviction ->
  ?net:Netmodel.t ->
  ?max_retries:int ->
  ?audit:bool ->
  ?engine:Machine.Cpu.engine ->
  ?prefetch_degree:int ->
  ?staging_chunks:int ->
  ?granularity:granularity ->
  ?harts:int ->
  ?shards:int ->
  ?sched_seed:int ->
  unit ->
  t
(** Defaults: 48 KiB tcache at [0x10000], basic-block chunking, FIFO
    eviction, local (SPARC-style) interconnect, 8 retries, audit off,
    decoded dispatch, prefetch off with an 8-chunk staging buffer,
    block granularity, one hart, one shard, scheduler seed 1.
    @raise Invalid_argument on out-of-range values (including
    [Function] granularity combined with [Procedure] chunking). *)

val sparc_prototype : ?tcache_bytes:int -> unit -> t
(** Basic-block chunking, local MC (no network), FIFO eviction. *)

val arm_prototype : ?tcache_bytes:int -> unit -> t
(** Procedure chunking and a 10 Mbps Ethernet MC link, as on the Skiff
    boards. *)

val pp : Format.formatter -> t -> unit
