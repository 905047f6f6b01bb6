(** Lockstep differential oracle: one verdict type, two entry points.

    {!pair} steps two softcached executions of the same program in
    instruction lockstep and compares the full architectural state after
    every step. {!modes} records the native data-access stream once and
    checks any number of configurations against it, catching a
    divergence at the exact access where the executions part ways, then
    compares the configurations' final data segments with each other.
    Fetch addresses and return-address values never participate in
    {!modes}: they legitimately differ (tcache placement, landing
    pads). *)

type verdict =
  | Equivalent of { steps : int }
      (** everything compared matched: instruction steps for {!pair},
          native access events plus outputs for {!modes} *)
  | Diverged of { step : int; detail : string }
      (** [detail] names the first mismatch: the differing state for
          {!pair}, the native and cached access or output for {!modes} *)
  | Out_of_fuel of { steps : int }
      (** every step compared before the fuel ran out matched *)
  | Native_out_of_fuel  (** reference run did not finish; no verdict *)
  | Unavailable of { vaddr : int; attempts : int; steps : int }
      (** the faulty interconnect gave up on a chunk; everything up to
          that point matched *)

val ok : verdict -> bool
(** [Equivalent] or [Out_of_fuel]. A caller that needs every
    configuration to finish matches [Equivalent] instead. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** What side a of a {!pair} carries; side b is the plain reference.
    - [Engines]: predecoded dispatch against interpretive dispatch. If a
      memory write failed to invalidate its predecode line, the decoded
      side executes a stale instruction and the pair diverges at that
      step.
    - [Prefetch]: the configuration as given against the same
      configuration with [prefetch_degree = 0]. Prefetching must be
      architecturally invisible; cycles are the one thing allowed to
      differ and the only axis where they are not compared.
    - [Trace]: a {!Trace.t} attached against none. Tracing must not move
      a cycle, a statistic or an interconnect counter, and the traced
      side's attribution must conserve against its cycle counter
      ({!Trace.conserved}).
    - [Fleet]: a 1-client {!Fleet.t} (dedup and batching on) against a
      plain controller. With one client there is no queueing,
      coalescing or piggybacking, so statistics and interconnect
      counters must match.
    - [Shards]: a 1-hart {!Softcache.Shard} session against a plain
      controller. Statistics must match except the fill counters the
      solo path bypasses; the lone hart must have been charged no
      waits, and the final state must pass {!Audit.shards}. *)
type axis = Engines | Prefetch | Trace | Fleet | Shards

val pair :
  ?cost:Machine.Cost.t ->
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  axis ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  verdict
(** [pair axis mk_cfg img] builds each side from a fresh [mk_cfg ()], so
    the two never share transport state, and steps them one instruction
    at a time. After every step pc, retired count, halted flag,
    registers and (except on [Prefetch]) cycles must match; at the end,
    outputs and the whole memory image. [Trace], [Fleet] and [Shards]
    then compare statistics and interconnect counters, followed by their
    own checks listed on {!axis}. [ops] are applied to both sides at
    evenly spaced fuel slices, state re-compared right after. [audit]
    installs {!Audit.install} on side a. Default [fuel] is 2M
    instructions. *)

val modes :
  ?cost:Machine.Cost.t ->
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (string * (unit -> Softcache.Config.t)) list ->
  Isa.Image.t ->
  verdict
(** [modes [(name, mk_cfg); ...] img] runs [img] natively once,
    recording its loads and stores, then replays each named
    configuration against that recording and compares its outputs with
    native. Finally every configuration's data segment must equal the
    first one's. This is the observational proof for configurations
    whose cycles, retire counts and code placement legitimately differ:
    eviction policies ({!Softcache.Config.eviction_table}), caching
    granularities ({!Softcache.Config.granularity_table}) or their
    product. [ops] are applied to each cached controller at evenly
    spaced fuel slices; [audit] installs {!Audit.install} on each.
    Default [fuel] is 2M instructions per run. Raises [Invalid_argument]
    on an empty list. *)
