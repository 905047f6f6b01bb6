(** SoftCache statistics.

    [translations] is the paper's miss count: "the software miss rate is
    the number of basic blocks translated divided by the number of
    instructions executed" (Fig. 7). The eviction ring carries the
    cycle-stamped paging activity behind Fig. 8, bounded so CC-side
    metadata cannot grow with run length (the same bounded-by-residency
    discipline the tcache stub recycling follows): the most recent
    [eviction_capacity] events are retained and [eviction_dropped]
    counts the overwritten tail. *)

val eviction_capacity : int
(** Fixed bound on retained eviction events (4096). *)

val age_buckets : int
(** Number of log2 buckets in the victim-age histogram (32). *)

type t = {
  mutable translations : int;  (** chunks translated = misses *)
  mutable translated_words : int;  (** words emitted into the tcache *)
  mutable overhead_words : int;
      (** emitted words beyond the original instruction count (pads,
          islands, fall-through slots) *)
  mutable lookups : int;  (** runtime hash-table lookups *)
  mutable traps : int;
      (** stub traps dispatched — every controller-mediated control
          transfer (exit misses, computed jumps, indirect calls, return
          stubs) *)
  mutable patches : int;  (** words rewritten to point into the tcache *)
  mutable reverts : int;  (** words rewritten back to miss stubs (unpatches) *)
  mutable evicted_blocks : int;
  eviction_ring : (int * int) array;
      (** bounded ring of (cycle stamp, blocks evicted); use
          [record_eviction] / [eviction_series], not the raw array *)
  mutable eviction_count : int;
      (** total eviction events recorded, including overwritten ones *)
  mutable flushes : int;  (** whole-tcache invalidations *)
  mutable scrubbed_words : int;  (** stack words scanned for live pads *)
  mutable ret_stubs : int;  (** persistent return stubs created *)
  mutable plt_slots : int;  (** persistent PLT slots created (function mode) *)
  mutable plt_patches : int;
      (** PLT slot specialisations — slot words patched from trap to
          direct jump, at install time or on a slot trap (subset of
          [patches]) *)
  mutable gran_degraded : int;
      (** functions degraded from function to block granularity because
          their whole-body unit could not be cached *)
  mutable max_resident_blocks : int;
  mutable max_occupied_bytes : int;
  mutable net_retries : int;  (** chunk re-requests after a transport fault *)
  mutable net_timeouts : int;  (** dropped frames the CC waited out *)
  mutable crc_failures : int;  (** chunks rejected by the CRC32 check *)
  mutable recoveries : int;
      (** chunks eventually delivered intact after at least one retry *)
  mutable chunk_failures : int;
      (** chunks given up on after the retry budget was exhausted *)
  mutable max_chunk_retries : int;
      (** worst retry count any single chunk needed *)
  mutable prefetch_issued : int;
      (** chunks the MC shipped speculatively alongside demand misses *)
  mutable prefetch_installs : int;
      (** staged chunks later installed on first touch (useful prefetch) *)
  mutable prefetch_wasted : int;
      (** staged chunks discarded without ever being touched *)
  mutable prefetch_crc_failures : int;
      (** staged chunks rejected by the install-time CRC check *)
  mutable batches : int;  (** demand frames that carried ≥ 1 prefetch *)
  mutable batch_chunks : int;  (** total chunks shipped across batches *)
  mutable max_batch_chunks : int;  (** largest single batched frame *)
  mutable policy_entries : int;
      (** block-entry (hit) events the replacement policy observed —
          the controller-mediated entries only, never one per
          instruction *)
  mutable evicted_victim : int;
      (** blocks evicted because the policy (or the FIFO sweep) chose
          them *)
  mutable evicted_collateral : int;
      (** blocks overlapped by a placement seeded at another victim *)
  mutable evicted_stub_growth : int;
      (** blocks run over by the growing persistent-stub area *)
  mutable evicted_invalidated : int;  (** [Controller.invalidate] range hits *)
  mutable evicted_flushed : int;  (** unpinned residents of a flush *)
  mutable fills : int;
      (** multi-hart fill-state-machine activations: misses that owned
          a wire fetch ([Absent -> Requested -> Filling -> Resident]);
          0 in solo runs, where the fill machinery is bypassed *)
  mutable fills_coalesced : int;
      (** duplicate misses from other harts that joined an in-flight
          fill instead of re-requesting over the wire *)
  mutable fill_wait_cycles : int;
      (** cycles harts spent suspended on fills owned by other harts *)
  mutable mc_wait_cycles : int;
      (** cycles harts spent waiting for the shared MC link to free up
          before issuing their own fill *)
  victim_age_hist : int array;
      (** log2-bucketed cycles-resident-at-eviction; use
          [record_victim_age] / [victim_ages], not the raw array *)
}

val create : unit -> t
val reset : t -> unit

val miss_rate : t -> retired:int -> float
(** Translations per retired instruction — the Fig. 7 metric. *)

val record_victim_age : t -> age:int -> unit
(** Record one evicted block's residency span (cycles between install
    and eviction) into the log2 histogram; bucket [k] holds ages in
    [2^k, 2^(k+1)), the last bucket saturates. *)

val victim_ages : t -> (int * int) list
(** Non-empty histogram buckets as [(2^k, count)] pairs, ascending. *)

val record_eviction : t -> cycle:int -> blocks:int -> unit
(** Record one eviction event; overwrites the oldest retained event
    once [eviction_capacity] have been recorded. *)

val eviction_series : t -> (int * int) list
(** Retained eviction events in chronological order (at most
    [eviction_capacity]; the oldest are dropped first). *)

val eviction_recorded : t -> int
(** Events currently retained in the ring. *)

val eviction_dropped : t -> int
(** Eviction events lost to the bound — explicit, never silent. *)

val pp : Format.formatter -> t -> unit
