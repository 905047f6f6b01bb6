(* Trap dispatch: every [Trap] the rewriter planted lands here —
   unresolved direct exits (translate + backpatch), computed jumps and
   indirect calls (tcache-map lookup), and persistent return stubs. *)

open Cc_state

(* Patch the unresolved exit stub [k] to jump straight at
   [target_block] — the paper's lazy link: an exit traps once, then its
   branch encodes the cache state. The caller passes the stub fields it
   captured *before* [ensure_resident] could evict [block] and recycle
   entry [k]; the [Tcache.is_alive block] guard rejects a stale
   capture. *)
let patch_exit t k ~block ~site_paddr ~kind ~revert_word
    (target_block : Tcache.block) =
  if Tcache.is_alive t.tc block then begin
    let patched =
      match kind with
      | Stub.Patch_jmp ->
        write_word t site_paddr (enc (Isa.Instr.Jmp target_block.paddr));
        record_incoming t target_block ~from_block:block ~site_paddr
          ~revert_word;
        true
      | Stub.Patch_jal ->
        write_word t site_paddr (enc (Isa.Instr.Jal target_block.paddr));
        record_incoming t target_block ~from_block:block ~site_paddr
          ~revert_word;
        true
      | Stub.Patch_br -> (
        match
          Isa.Encode.decode (Machine.Memory.read32 t.cpu.mem site_paddr)
        with
        | Some (Isa.Instr.Br (c, r1, r2, _)) ->
          let d = (target_block.paddr - site_paddr) asr 2 in
          if Isa.Encode.branch_offset_fits d then begin
            write_word t site_paddr (enc (Isa.Instr.Br (c, r1, r2, d)));
            record_incoming t target_block ~from_block:block ~site_paddr
              ~revert_word;
            true
          end
          else begin
            (* out of reach: specialise the island the branch aims at
               into a direct jump instead. The island's offset is
               encoded in the revert word (site + 4*d). *)
            match Isa.Encode.decode revert_word with
            | Some (Isa.Instr.Br (_, _, _, di)) ->
              let island = site_paddr + (4 * di) in
              write_word t island (enc (Isa.Instr.Jmp target_block.paddr));
              record_incoming t target_block ~from_block:block
                ~site_paddr:island
                ~revert_word:(enc (Isa.Instr.Trap k));
              true
            | Some _ | None -> false
          end
        | Some _ | None -> false)
    in
    if patched then begin
      t.stats.patches <- t.stats.patches + 1;
      charge t Trace.Patch Config.patch_cycles;
      if tracing t then
        trace t
          (Trace.Cc_backpatch
             { site = site_paddr; target = target_block.paddr });
      emit_event t Patched
    end
  end

let handle_trap t k =
  (* the CPU has already added [trap_dispatch] to the cycle counter
     before handing control to us *)
  t.stats.traps <- t.stats.traps + 1;
  (match t.tracer with
  | Some tr -> Trace.attribute_included tr Trace.Trap t.cpu.cost.trap_dispatch
  | None -> ());
  match t.stubs.(k) with
  | Stub.Exit { block; site_paddr; kind; target; revert_word } ->
    (* capture the stub fields before [ensure_resident]: the
       translation can evict [block] and recycle entry [k] *)
    let b = Cc_translate.ensure_resident t target in
    patch_exit t k ~block ~site_paddr ~kind ~revert_word b;
    t.cpu.pc <- b.paddr
  | Stub.Computed { rs } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let target = Machine.Cpu.reg t.cpu rs in
    let b = Cc_translate.ensure_resident t target in
    t.cpu.pc <- b.paddr
  | Stub.Icall { rd; rs; pad_paddr } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let target = Machine.Cpu.reg t.cpu rs in
    Machine.Cpu.set_reg t.cpu rd pad_paddr;
    let b = Cc_translate.ensure_resident t target in
    t.cpu.pc <- b.paddr
  | Stub.Ret_stub { site_paddr; target } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let b = Cc_translate.ensure_resident t target in
    (* specialise this stub into a direct jump while the target lives,
       unless a flush has re-purposed the stub area in the meantime *)
    (match Hashtbl.find_opt t.ret_stubs target with
    | Some (p, _) when p = site_paddr ->
      write_word t site_paddr (enc (Isa.Instr.Jmp b.paddr));
      (match Tcache.find_by_id t.tc b.id with
      | Some tb ->
        record_incoming t tb ~from_block:(-1) ~site_paddr
          ~revert_word:(enc (Isa.Instr.Trap k));
        t.stats.patches <- t.stats.patches + 1;
        charge t Trace.Patch Config.patch_cycles;
        trace t (Trace.Cc_backpatch { site = site_paddr; target = b.paddr });
        emit_event t Patched
      | None -> ())
    | Some _ | None -> ());
    t.cpu.pc <- b.paddr
  | Stub.Plt { slot_paddr; target } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let b = Cc_translate.ensure_resident t target in
    (* translating a missing callee patches its slot on install, so
       this trap usually resumes through an already-patched slot; only
       a call whose target was resident all along (a pinned flush
       survivor under a re-trapped slot) still finds the trap word in
       place and specialises it here *)
    (if Machine.Memory.read32 t.cpu.mem slot_paddr = enc (Isa.Instr.Trap k)
     then
       match Tcache.find_by_id t.tc b.id with
       | Some tb ->
         write_word t slot_paddr (enc (Isa.Instr.Jmp tb.paddr));
         record_incoming t tb ~from_block:(-1) ~site_paddr:slot_paddr
           ~revert_word:(enc (Isa.Instr.Trap k));
         t.stats.patches <- t.stats.patches + 1;
         t.stats.plt_patches <- t.stats.plt_patches + 1;
         charge t Trace.Patch Config.patch_cycles;
         trace t
           (Trace.Cc_backpatch { site = slot_paddr; target = tb.paddr });
         emit_event t Patched
       | None -> ());
    t.cpu.pc <- b.paddr
