type incoming = { from_block : int; site_paddr : int; revert_word : int }

type block = {
  id : int;
  vaddr : int;
  paddr : int;
  words : int;
  orig_words : int;
  mutable incoming : incoming list;
  pads : (int * int) list;
  resume : int array;
  stubs : int list; (* stub-table entries owned by this block *)
}

(* The owner of every word no resident block covers. Shared, never
   handed out, and compared by physical equality. *)
let free =
  {
    id = -1;
    vaddr = -1;
    paddr = -1;
    words = 0;
    orig_words = 0;
    incoming = [];
    pads = [];
    resume = [||];
    stubs = [];
  }

(* One allocation arena. The unsharded tcache is a single region
   spanning the whole [base, top) range; [--shards K] partitions the
   range into K equal regions, each with its own circular sweep pointer
   and its own persistent-stub area growing down from its top. *)
type region = {
  r_lo : int;
  r_top : int;  (* one past the region *)
  mutable r_alloc_ptr : int;  (* next candidate placement *)
  mutable r_persist_base : int;  (* stubs occupy [r_persist_base, r_top) *)
}

type t = {
  base : int;
  top : int;  (* one past the whole tcache *)
  regions : region array;
  span : int;  (* bytes per region *)
  owner : block array;
      (* one slot per tcache word: the resident block covering it, or
         [free]. Placement reads only the words it would run over, so
         finding victims costs O(placement size), not O(residents) *)
  mutable code_bytes : int;  (* sum of resident blocks' bytes *)
  by_vaddr : (int, block) Hashtbl.t;  (* global: cross-shard lookup *)
  by_id : (int, block) Hashtbl.t;
  pinned : (int, unit) Hashtbl.t;  (* block ids exempt from eviction *)
  leased : (int, int) Hashtbl.t;
      (* block id -> read-lease count. A leased block has a suspended
         hart executing inside it: the allocation sweep must hop over
         it exactly as it hops over pins. Unlike pins, leases do not
         survive flushes or invalidation — those writers take the
         region by force and the parked-pc redirect re-routes the
         reader (the lease is re-established on a live block when the
         hart next suspends). *)
}

let create_sharded ~shards ~base ~bytes =
  if base land 3 <> 0 then invalid_arg "Tcache.create: unaligned base";
  if shards < 1 then invalid_arg "Tcache.create: shards must be >= 1";
  if bytes < 16 * shards then invalid_arg "Tcache.create: region too small";
  let span = (bytes land lnot 3) / shards land lnot 3 in
  let regions =
    Array.init shards (fun i ->
        let lo = base + (i * span) in
        {
          r_lo = lo;
          r_top = lo + span;
          r_alloc_ptr = lo;
          r_persist_base = lo + span;
        })
  in
  {
    base;
    top = base + (shards * span);
    regions;
    span;
    owner = Array.make (shards * span / 4) free;
    code_bytes = 0;
    by_vaddr = Hashtbl.create 256;
    by_id = Hashtbl.create 256;
    pinned = Hashtbl.create 8;
    leased = Hashtbl.create 8;
  }

let create ~base ~bytes = create_sharded ~shards:1 ~base ~bytes
let base t = t.base
let top t = t.top
let shards t = Array.length t.regions

(* Deterministic home routing: which shard's arena a chunk is placed
   in. Any pure function of the vaddr works; word-granularity modulo
   spreads consecutive chunks across shards. *)
let home_shard t vaddr = (vaddr lsr 2) mod Array.length t.regions

let shard_of_paddr t paddr =
  if paddr < t.base || paddr >= t.top then
    invalid_arg "Tcache.shard_of_paddr: outside the tcache"
  else min (Array.length t.regions - 1) ((paddr - t.base) / t.span)

let shard_bounds t i =
  let r = t.regions.(i) in
  (r.r_lo, r.r_top)

let lookup t vaddr = Hashtbl.find_opt t.by_vaddr vaddr
let find_by_id t id = Hashtbl.find_opt t.by_id id
let is_alive t id = Hashtbl.mem t.by_id id

(* Owner-index slots [i0, i1) of the byte range [lo, hi), clipped to
   the tcache. *)
let word_range t lo hi =
  ( max 0 ((lo - t.base) asr 2),
    min (Array.length t.owner) ((hi - t.base + 3) asr 2) )

let own t b =
  let i0, i1 = word_range t b.paddr (b.paddr + (4 * b.words)) in
  if i1 > i0 then Array.fill t.owner i0 (i1 - i0) b

let disown t b =
  let i0, i1 = word_range t b.paddr (b.paddr + (4 * b.words)) in
  for i = i0 to i1 - 1 do
    if t.owner.(i) == b then t.owner.(i) <- free
  done

(* Drop [id]'s registered block from the owner index and the counter. *)
let unaccount t id =
  match Hashtbl.find t.by_id id with
  | r ->
    disown t r;
    t.code_bytes <- t.code_bytes - (4 * r.words)
  | exception Not_found -> ()

let register t b =
  unaccount t b.id;
  Hashtbl.replace t.by_vaddr b.vaddr b;
  Hashtbl.replace t.by_id b.id b;
  own t b;
  t.code_bytes <- t.code_bytes + (4 * b.words)

let pin t (b : block) =
  if Hashtbl.mem t.by_id b.id then Hashtbl.replace t.pinned b.id ()

let unpin t (b : block) = Hashtbl.remove t.pinned b.id
let is_pinned t id = Hashtbl.mem t.pinned id
let pinned_blocks t = Hashtbl.length t.pinned
let pinned_ids t = Hashtbl.fold (fun id () acc -> id :: acc) t.pinned []

let lease t (b : block) =
  if Hashtbl.mem t.by_id b.id then
    Hashtbl.replace t.leased b.id
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.leased b.id))

let release t (b : block) =
  match Hashtbl.find_opt t.leased b.id with
  | Some n when n > 1 -> Hashtbl.replace t.leased b.id (n - 1)
  | Some _ -> Hashtbl.remove t.leased b.id
  | None -> ()

let lease_count t id =
  Option.value ~default:0 (Hashtbl.find_opt t.leased id)

let is_leased t id = Hashtbl.mem t.leased id
let leased_blocks t = Hashtbl.length t.leased

let leased_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.leased []

(* sweep obstacles: blocks the allocator may never reclaim *)
let is_obstacle t id = Hashtbl.mem t.pinned id || Hashtbl.mem t.leased id
let obstacles t = Hashtbl.length t.pinned + Hashtbl.length t.leased

let remove t b =
  Hashtbl.remove t.pinned b.id;
  Hashtbl.remove t.leased b.id;
  (match Hashtbl.find_opt t.by_vaddr b.vaddr with
  | Some b' when b'.id = b.id -> Hashtbl.remove t.by_vaddr b.vaddr
  | Some _ | None -> ());
  unaccount t b.id;
  Hashtbl.remove t.by_id b.id

let blocks t = Hashtbl.fold (fun _ b acc -> b :: acc) t.by_id []
let resident_blocks t = Hashtbl.length t.by_id

let occupied_bytes t =
  Array.fold_left
    (fun acc r -> acc + (r.r_top - r.r_persist_base))
    t.code_bytes t.regions

let map_entries t = Hashtbl.length t.by_vaddr

(* Built top-down: [hi] is one past the run ending at word [i]. *)
let owner_runs t =
  let rec runs i acc =
    if i < 0 then acc
    else begin
      let b = t.owner.(i) and j = ref i in
      while !j > 0 && t.owner.(!j - 1) == b do
        decr j
      done;
      let run = (t.base + (4 * !j), t.base + (4 * (i + 1)), b.id) in
      runs (!j - 1) (run :: acc)
    end
  in
  runs (Array.length t.owner - 1) []

let block_at t paddr =
  if paddr < t.base || paddr >= t.top then None
  else
    let b = t.owner.((paddr - t.base) asr 2) in
    if b == free then None else Some b

let corrupt_owner t paddr b =
  if paddr < t.base || paddr >= t.top then
    invalid_arg "Tcache.corrupt_owner: outside the tcache"
  else t.owner.((paddr - t.base) asr 2) <- Option.value ~default:free b

(* The distinct blocks covering any word of [lo, hi), lowest address
   first. The scan runs top-down and hops from each owner straight to
   the word below its start, so it reads each free word once and each
   victim once. *)
let overlapping t lo hi =
  let i0, i1 = word_range t lo hi in
  let rec scan i acc =
    if i < i0 then acc
    else
      let b = t.owner.(i) in
      if b == free then scan (i - 1) acc
      else scan (((b.paddr - t.base) asr 2) - 1) (b :: acc)
  in
  scan (i1 - 1) []

let evict_range t lo hi =
  let victims = overlapping t lo hi in
  List.iter (remove t) victims;
  victims

(* Pinned and leased blocks are immovable obstacles for the sweep: when
   the candidate range would overlap one, skip past it. [budget] bounds
   the number of skips so a region crowded with obstacles terminates in
   [`Full] — the chunk would fit an empty region, the obstacles are
   what is in the way. *)
let rec place_skipping_pinned t (r : region) ~bytes ~budget ~can_evict =
  if budget = 0 then Error `Full
  else if r.r_alloc_ptr + bytes > r.r_persist_base then
    if can_evict then begin
      r.r_alloc_ptr <- r.r_lo;
      place_skipping_pinned t r ~bytes ~budget:(budget - 1) ~can_evict
    end
    else Error `Full
  else
    let lo = r.r_alloc_ptr in
    let hi = lo + bytes in
    let victims = overlapping t lo hi in
    (* the end of the furthest immovable obstacle in the way, or [lo] *)
    let skip_to =
      if obstacles t = 0 then lo
      else
        List.fold_left
          (fun acc b ->
            if is_obstacle t b.id then max acc (b.paddr + (b.words * 4))
            else acc)
          lo victims
    in
    if skip_to > lo then begin
      r.r_alloc_ptr <- skip_to;
      place_skipping_pinned t r ~bytes ~budget:(budget - 1) ~can_evict
    end
    else if victims <> [] && not can_evict then Error `Full
    else begin
      List.iter (remove t) victims;
      r.r_alloc_ptr <- hi;
      Ok (lo, victims)
    end

let region t shard =
  if shard < 0 || shard >= Array.length t.regions then
    invalid_arg "Tcache: shard out of range"
  else t.regions.(shard)

let alloc_fifo ?(shard = 0) t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else
    match
      place_skipping_pinned t r ~bytes
        ~budget:(2 * (obstacles t + 2))
        ~can_evict:true
    with
    | Ok _ as ok -> ok
    | Error `Full -> Error `Full

(* Seeded variant for victim-directed policies: restart the sweep at
   the policy's chosen block so that block (and only its immediate
   neighbourhood) is reclaimed. A seed outside the code area — possible
   when the persistent stub region grew over the victim between the
   choice and the placement — is ignored and the sweep just continues,
   which degrades gracefully to FIFO for this one allocation. *)
let alloc_seeded ?(shard = 0) t ~seed ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else begin
    if seed >= r.r_lo && seed < r.r_persist_base then r.r_alloc_ptr <- seed;
    place_skipping_pinned t r ~bytes
      ~budget:(2 * (obstacles t + 2))
      ~can_evict:true
  end

let alloc_ptr ?(shard = 0) t = (region t shard).r_alloc_ptr

let alloc_append ?(shard = 0) t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else
    match
      place_skipping_pinned t r ~bytes
        ~budget:(obstacles t + 2)
        ~can_evict:false
    with
    | Ok (lo, victims) ->
      assert (victims = []);
      Ok lo
    | Error _ as e -> e

let persist_base ?(shard = 0) t = (region t shard).r_persist_base

let alloc_persistent ?(shard = 0) t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else begin
    let lo = r.r_persist_base - bytes in
    let victims = evict_range t lo r.r_persist_base in
    r.r_persist_base <- lo;
    (* keep the FIFO sweep out of the shrunken code area *)
    if r.r_alloc_ptr > r.r_persist_base then r.r_alloc_ptr <- r.r_lo;
    Ok (lo, victims)
  end

let reset t =
  (* pinned blocks survive the flush; leases do not — the flush writer
     takes every region by force and parked readers are redirected *)
  let former = List.filter (fun b -> not (is_pinned t b.id)) (blocks t) in
  List.iter (remove t) former;
  Array.iter (fun r -> r.r_alloc_ptr <- r.r_lo) t.regions;
  former

let pp ppf t =
  if Array.length t.regions = 1 then
    Format.fprintf ppf
      "tcache [0x%x,0x%x): %d blocks, ptr=0x%x, persist=0x%x" t.base t.top
      (resident_blocks t) t.regions.(0).r_alloc_ptr
      t.regions.(0).r_persist_base
  else
    Format.fprintf ppf "tcache [0x%x,0x%x): %d blocks, %d shards%s" t.base
      t.top (resident_blocks t)
      (Array.length t.regions)
      (if leased_blocks t > 0 then
         Printf.sprintf ", %d leased" (leased_blocks t)
       else "")
