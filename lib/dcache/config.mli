(** Configuration of the Section 3 software data cache.

    Cycle prices follow the instruction sequences of Figure 10:
    - a specialised (rewritten) constant-address access is a single
      load;
    - a predicted hit runs the 9-instruction check-and-index sequence;
    - a slow hit adds a binary search of the sorted dcache;
    - a miss adds the server round trip and block transfer;
    - stack-cache presence checks run at procedure entry/exit. *)

type prediction =
  | Same_index  (** predict the previously used block index *)
  | Second_chance
      (** on a failed prediction, probe index+1 before searching *)

(** {1 Cycle prices (Figure 10)} *)

val const_cycles : int
(** specialised access (1 load) *)

val predicted_hit_cycles : int
(** Fig. 10 sequence, ~9 instructions *)

val search_step_cycles : int
(** per binary-search probe of a slow hit *)

val miss_fixed_cycles : int
(** fixed client-side work per miss, on top of the server round trip
    and block transfer *)

val scache_check_cycles : int
(** presence check at entry/exit *)

val spill_refill_cycles : int
(** per frame moved to/from the server *)

(** {1 Configuration} *)

type t = {
  dcache_bytes : int;
  block_bytes : int;  (** power of two *)
  scache_frames : int;  (** frames the circular stack buffer holds *)
  prediction : prediction;
  specialise_constants : bool;
      (** rewrite accesses that have shown a constant address into
          direct loads (deoptimised on the first conflicting access) *)
  specialise_threshold : int;
      (** accesses with a stable address before a site is rewritten *)
  net : Netmodel.t;
}

val make :
  ?dcache_bytes:int ->
  ?block_bytes:int ->
  ?scache_frames:int ->
  ?prediction:prediction ->
  ?specialise_constants:bool ->
  ?specialise_threshold:int ->
  ?net:Netmodel.t ->
  unit ->
  t
(** Defaults: 8 KiB dcache of 32-byte blocks, 16-frame scache,
    [Same_index] prediction, constant specialisation on (threshold 32),
    local interconnect. *)

val pp : Format.formatter -> t -> unit
