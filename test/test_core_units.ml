(* Unit tests of the SoftCache internals: the chunker, the rewriter's
   layout and emission rules, and the translation-cache bookkeeping. *)

let reg = Isa.Reg.r

let image_of instrs ?(symbols = []) () =
  Isa.Image.make ~name:"unit" ~code_base:0x1000
    ~code:(Array.of_list (List.map Isa.Encode.encode instrs))
    ~data_base:0x100000 ~data:Bytes.empty ~entry:0x1000 ~symbols

(* ------------------------------------------------------------------ *)
(* Chunker *)

let test_chunk_basic_block () =
  let img =
    image_of
      [
        Isa.Instr.Nop;
        Isa.Instr.Alui (Add, reg 1, reg 1, 1);
        Isa.Instr.Br (Eq, reg 1, reg 2, 4);
        Isa.Instr.Nop;
        Isa.Instr.Halt;
      ]
      ()
  in
  let c = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1000 in
  Alcotest.(check int) "ends at branch" 3 (Array.length c.instrs);
  Alcotest.(check int) "span" 12 (Softcache.Chunker.span_bytes c);
  (* a chunk can start mid-block (tail duplication) *)
  let c2 = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1004 in
  Alcotest.(check int) "tail chunk" 2 (Array.length c2.instrs);
  (* and right at the terminator *)
  let c3 = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1008 in
  Alcotest.(check int) "terminator-only" 1 (Array.length c3.instrs)

let test_chunk_procedure () =
  let symbols =
    [
      { Isa.Image.sym_name = "f"; sym_addr = 0x1000; sym_size = 12 };
      { Isa.Image.sym_name = "g"; sym_addr = 0x100c; sym_size = 8 };
    ]
  in
  let img =
    image_of
      [
        Isa.Instr.Nop;
        Isa.Instr.Br (Eq, reg 1, reg 2, -1);
        Isa.Instr.Jr Isa.Reg.ra;
        Isa.Instr.Nop;
        Isa.Instr.Halt;
      ]
      ~symbols ()
  in
  let c = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x1000 in
  Alcotest.(check int) "whole procedure" 3 (Array.length c.instrs);
  (* entering mid-procedure chunks to the procedure's end *)
  let c2 = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x1004 in
  Alcotest.(check int) "rest of procedure" 2 (Array.length c2.instrs);
  let c3 = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x100c in
  Alcotest.(check int) "next procedure" 2 (Array.length c3.instrs)

let test_chunk_bad_addresses () =
  let img = image_of [ Isa.Instr.Halt ] () in
  let expect_bad v =
    match Softcache.Chunker.chunk_at img Softcache.Config.Basic_block v with
    | exception Softcache.Chunker.Bad_address _ -> ()
    | _ -> Alcotest.failf "expected Bad_address for 0x%x" v
  in
  expect_bad 0x0FFC;
  expect_bad 0x1004;
  expect_bad 0x1001

let test_chunk_rejects_trap () =
  let img = image_of [ Isa.Instr.Nop; Isa.Instr.Trap 3; Isa.Instr.Halt ] () in
  match Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1000 with
  | exception Softcache.Chunker.Trap_in_source 0x1004 -> ()
  | _ -> Alcotest.fail "expected Trap_in_source"

(* ------------------------------------------------------------------ *)
(* Rewriter: layout rules *)

let layout instrs =
  Softcache.Rewriter.layout_words
    { Softcache.Chunker.vaddr = 0x1000; instrs = Array.of_list instrs }

let test_layout_sizes () =
  (* plain + halt: verbatim *)
  Alcotest.(check int) "straight-line + halt" 2
    (layout [ Isa.Instr.Nop; Isa.Instr.Halt ]);
  (* external conditional branch: word + fall slot + island *)
  Alcotest.(check int) "branch block" 3
    (layout [ Isa.Instr.Br (Eq, reg 1, reg 2, 100) ]);
  (* external jmp: single patched word, no extras *)
  Alcotest.(check int) "jmp block" 1 (layout [ Isa.Instr.Jmp 0x2000 ]);
  (* call: jal + pad + island *)
  Alcotest.(check int) "call block" 3 (layout [ Isa.Instr.Jal 0x2000 ]);
  (* return: verbatim *)
  Alcotest.(check int) "return" 1 (layout [ Isa.Instr.Jr Isa.Reg.ra ]);
  (* computed jump: one trap *)
  Alcotest.(check int) "computed jump" 1 (layout [ Isa.Instr.Jr (reg 5) ]);
  (* indirect call: trap + pad *)
  Alcotest.(check int) "indirect call" 2
    (layout [ Isa.Instr.Jalr (Isa.Reg.ra, reg 5) ]);
  (* chunk falling off its end gets a fall slot *)
  Alcotest.(check int) "fall-through slot" 2 (layout [ Isa.Instr.Nop ])

let test_layout_internal_branch () =
  (* a self-loop branch is internal: no island *)
  Alcotest.(check int) "self loop" 2
    (layout [ Isa.Instr.Br (Eq, reg 1, reg 2, 0) ])

(* ------------------------------------------------------------------ *)
(* Rewriter: emission *)

let translate ?(resident = fun _ -> None) instrs =
  let chunk =
    { Softcache.Chunker.vaddr = 0x1000; instrs = Array.of_list instrs }
  in
  let stubs = ref [] in
  let alloc make =
    let k = List.length !stubs in
    stubs := make k :: !stubs;
    k
  in
  let e =
    Softcache.Rewriter.translate chunk ~block_id:7 ~base:0x20000 ~resident
      ~alloc_stub:alloc
  in
  (e, List.rev !stubs)

let test_emit_verbatim_body () =
  let e, stubs =
    translate [ Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Halt ]
  in
  Alcotest.(check int) "2 words" 2 (Array.length e.words);
  Alcotest.(check int) "no stubs" 0 (List.length stubs);
  Alcotest.(check bool) "body verbatim" true
    (Isa.Encode.decode e.words.(0)
    = Some (Isa.Instr.Alui (Add, reg 1, reg 1, 1)));
  Alcotest.(check int) "no overhead beyond none" 0 e.overhead_words

let test_emit_unbound_jmp_is_trap () =
  let e, stubs = translate [ Isa.Instr.Jmp 0x3000 ] in
  (match Isa.Encode.decode e.words.(0) with
  | Some (Isa.Instr.Trap 0) -> ()
  | _ -> Alcotest.fail "expected trap in jmp slot");
  match stubs with
  | [ Softcache.Stub.Exit e ] ->
    Alcotest.(check int) "target" 0x3000 e.target;
    Alcotest.(check int) "site" 0x20000 e.site_paddr;
    Alcotest.(check bool) "kind" true (e.kind = Softcache.Stub.Patch_jmp)
  | _ -> Alcotest.fail "expected one exit stub"

let test_emit_bound_jmp_is_direct () =
  let resident v = if v = 0x3000 then Some (42, 0x21000) else None in
  let e, _ = translate ~resident [ Isa.Instr.Jmp 0x3000 ] in
  Alcotest.(check bool) "direct jmp" true
    (Isa.Encode.decode e.words.(0) = Some (Isa.Instr.Jmp 0x21000));
  match e.bound with
  | [ (42, 0x20000, _) ] -> ()
  | _ -> Alcotest.fail "expected bound record to block 42"

let test_emit_call_shape () =
  let e, stubs = translate [ Isa.Instr.Jal 0x3000 ] in
  Alcotest.(check int) "3 words" 3 (Array.length e.words);
  (* word 0: jal to the island (word 2) *)
  Alcotest.(check bool) "jal to island" true
    (Isa.Encode.decode e.words.(0) = Some (Isa.Instr.Jal (0x20000 + 8)));
  (* word 1: the landing pad, trapping until the return target exists *)
  (match Isa.Encode.decode e.words.(1) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "pad should trap");
  (* pad is registered for stack scrubbing with the return vaddr *)
  Alcotest.(check bool) "pad recorded" true
    (List.mem (0x20004, 0x1004) e.pads);
  (* two stubs: the call exit and the pad *)
  Alcotest.(check int) "stubs" 2 (List.length stubs)

let test_emit_branch_shape () =
  let e, _ = translate [ Isa.Instr.Br (Ne, reg 1, reg 2, 64) ] in
  (* [br -> island][fall slot][island trap] *)
  Alcotest.(check int) "3 words" 3 (Array.length e.words);
  (match Isa.Encode.decode e.words.(0) with
  | Some (Isa.Instr.Br (Ne, _, _, 2)) -> () (* island at +2 *)
  | i ->
    Alcotest.failf "branch aims at island, got %s"
      (match i with Some i -> Isa.Instr.to_string i | None -> "???"));
  (match Isa.Encode.decode e.words.(1) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "fall slot should trap");
  match Isa.Encode.decode e.words.(2) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "island should trap"

let test_emit_computed_jump () =
  let e, stubs = translate [ Isa.Instr.Jr (reg 9) ] in
  Alcotest.(check int) "1 word" 1 (Array.length e.words);
  match stubs with
  | [ Softcache.Stub.Computed { rs } ] ->
    Alcotest.(check bool) "register" true (Isa.Reg.equal rs (reg 9))
  | _ -> Alcotest.fail "expected computed stub" 

let test_emit_return_verbatim () =
  let e, stubs = translate [ Isa.Instr.Jr Isa.Reg.ra ] in
  Alcotest.(check bool) "jr ra verbatim" true
    (Isa.Encode.decode e.words.(0) = Some (Isa.Instr.Jr Isa.Reg.ra));
  Alcotest.(check int) "no stubs" 0 (List.length stubs)

let test_emit_resume_map () =
  let e, _ =
    translate [ Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Jal 0x3000 ]
  in
  (* [add][jal][pad][island] *)
  Alcotest.(check int) "body resumes at own vaddr" 0x1000 e.resume.(0);
  Alcotest.(check int) "jal resumes re-executing" 0x1004 e.resume.(1);
  Alcotest.(check int) "pad resumes at return point" 0x1008 e.resume.(2);
  Alcotest.(check int) "island resumes at target" 0x3000 e.resume.(3)

let test_emit_internal_jmp () =
  (* jmp back to the chunk's first instruction (proc-mode idiom) *)
  let chunk =
    {
      Softcache.Chunker.vaddr = 0x1000;
      instrs =
        [| Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Jmp 0x1000 |];
    }
  in
  let e =
    Softcache.Rewriter.translate chunk ~block_id:1 ~base:0x20000
      ~resident:(fun _ -> None)
      ~alloc_stub:(fun _ -> Alcotest.fail "no stubs for internal jmp")
  in
  Alcotest.(check bool) "internal jmp direct" true
    (Isa.Encode.decode e.words.(1) = Some (Isa.Instr.Jmp 0x20000))

(* Structural invariants over random chunks: the emission always
   matches the layout size, every word decodes, every stub site lies
   inside the block, and resume entries are plausible. *)
let gen_chunk_instr =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Isa.Instr.Alui (Add, Isa.Reg.r 1, Isa.Reg.r 2, k))
             (int_bound 100));
        (2, map (fun o -> Isa.Instr.Br (Eq, Isa.Reg.r 1, Isa.Reg.r 2, o - 8))
             (int_bound 16));
        (1, map (fun t -> Isa.Instr.Jmp (0x2000 + (4 * t))) (int_bound 64));
        (1, map (fun t -> Isa.Instr.Jal (0x2000 + (4 * t))) (int_bound 64));
        (1, return (Isa.Instr.Jr Isa.Reg.ra));
        (1, return (Isa.Instr.Jr (Isa.Reg.r 7)));
        (1, return (Isa.Instr.Jalr (Isa.Reg.ra, Isa.Reg.r 7)));
        (1, return Isa.Instr.Halt);
      ])

let test_rewriter_invariants =
  QCheck.Test.make ~count:300 ~name:"rewriter structural invariants"
    QCheck.(
      make
        ~print:(fun l ->
          String.concat "; " (List.map Isa.Instr.to_string l))
        Gen.(list_size (int_range 1 20) gen_chunk_instr))
    (fun instrs ->
      (* basic-block style: cut at the first terminator, keep at least
         one instruction *)
      let rec cut acc = function
        | [] -> List.rev acc
        | i :: rest ->
          if Isa.Instr.is_block_terminator i then List.rev (i :: acc)
          else cut (i :: acc) rest
      in
      let instrs = cut [] instrs in
      let chunk =
        { Softcache.Chunker.vaddr = 0x1000; instrs = Array.of_list instrs }
      in
      let expect = Softcache.Rewriter.layout_words chunk in
      let stubs = ref [] in
      let alloc make =
        let k = List.length !stubs in
        stubs := make k :: !stubs;
        k
      in
      let base = 0x20000 in
      let e =
        Softcache.Rewriter.translate chunk ~block_id:1 ~base
          ~resident:(fun v -> if v land 8 = 0 then Some (2, 0x30000) else None)
          ~alloc_stub:alloc
      in
      let total = Array.length e.words in
      let in_block a = a >= base && a < base + (4 * total) in
      total = expect
      && Array.for_all (fun w -> Isa.Encode.decode w <> None) e.words
      && Array.for_all (fun rv -> rv >= 0 && rv land 3 = 0) e.resume
      && List.for_all
           (fun s ->
             match (s : Softcache.Stub.t) with
             | Softcache.Stub.Exit x -> in_block x.site_paddr
             | Softcache.Stub.Icall x -> in_block x.pad_paddr
             | Softcache.Stub.Computed _ -> true
             | Softcache.Stub.Ret_stub _ | Softcache.Stub.Plt _ ->
               false (* never emitted here *))
           !stubs
      && List.for_all (fun (p, _) -> in_block p) e.pads
      && List.for_all (fun (tb, site, _) -> tb = 2 && in_block site) e.bound)

(* ------------------------------------------------------------------ *)
(* Tcache bookkeeping *)

let block ~id ~vaddr ~paddr ~words =
  {
    Softcache.Tcache.id;
    vaddr;
    paddr;
    words;
    orig_words = words;
    incoming = [];
    pads = [];
    resume = Array.make words vaddr;
    stubs = [];
  }

let test_tcache_register_lookup () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:1024 in
  let b = block ~id:1 ~vaddr:0x1000 ~paddr:0x20000 ~words:4 in
  Softcache.Tcache.register tc b;
  Alcotest.(check bool) "found by vaddr" true
    (Softcache.Tcache.lookup tc 0x1000 <> None);
  Alcotest.(check bool) "found by id" true (Softcache.Tcache.is_alive tc 1);
  Softcache.Tcache.remove tc b;
  Alcotest.(check bool) "gone" true (Softcache.Tcache.lookup tc 0x1000 = None);
  Alcotest.(check bool) "id gone" false (Softcache.Tcache.is_alive tc 1)

let test_tcache_fifo_wrap_evicts () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (* fill: 4 blocks x 4 words = 64 bytes *)
  for i = 0 to 3 do
    match Softcache.Tcache.alloc_fifo tc ~words:4 with
    | Ok (p, []) ->
      Softcache.Tcache.register tc
        (block ~id:i ~vaddr:(0x1000 + (16 * i)) ~paddr:p ~words:4)
    | _ -> Alcotest.fail "unexpected eviction while filling"
  done;
  (* the next allocation wraps and evicts the first block *)
  match Softcache.Tcache.alloc_fifo tc ~words:4 with
  | Ok (p, [ victim ]) ->
    Alcotest.(check int) "wraps to base" 0x20000 p;
    Alcotest.(check int) "evicts oldest" 0 victim.id
  | _ -> Alcotest.fail "expected one eviction"

(* Regression: pin crowding is [`Full], not [`Too_large] — a chunk
   that would fit an empty region but cannot be placed because pinned
   blocks obstruct every candidate position must not be reported as
   exceeding capacity. *)
let test_tcache_pin_crowding_full () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  for i = 0 to 3 do
    match Softcache.Tcache.alloc_fifo tc ~words:4 with
    | Ok (p, []) ->
      let b = block ~id:i ~vaddr:(0x1000 + (16 * i)) ~paddr:p ~words:4 in
      Softcache.Tcache.register tc b;
      Softcache.Tcache.pin tc b
    | _ -> Alcotest.fail "unexpected eviction while filling"
  done;
  (match Softcache.Tcache.alloc_fifo tc ~words:4 with
  | Error `Full -> ()
  | Error `Too_large ->
    Alcotest.fail "pin crowding misreported as Too_large"
  | Ok _ -> Alcotest.fail "allocated over pinned blocks");
  (* capacity overflow is still distinguished *)
  match Softcache.Tcache.alloc_fifo tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large for oversize chunk"

(* and at controller level: filling the tcache with pins must surface
   as Tcache_too_small, never Chunk_too_large *)
let test_controller_pin_crowding () =
  let b = Isa.Builder.create "pins" in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  let labels = List.init 32 (fun _ -> Isa.Builder.new_label b) in
  List.iteri
    (fun i l ->
      Isa.Builder.func b (Printf.sprintf "f%d" i) l (fun () ->
          for k = 1 to 6 do
            Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, k))
          done;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra)))
    labels;
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  let img = Isa.Builder.build b in
  let cfg =
    Softcache.Config.make ~tcache_bytes:512
      ~chunking:Softcache.Config.Procedure ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let addrs =
    List.filter_map
      (fun (s : Isa.Image.symbol) ->
        if String.length s.sym_name > 0 && s.sym_name.[0] = 'f' then
          Some s.sym_addr
        else None)
      img.symbols
  in
  let rec go = function
    | [] -> Alcotest.fail "32 pins never filled a 512-byte tcache"
    | a :: rest -> (
      match Softcache.Controller.pin ctrl a with
      | () -> go rest
      | exception Softcache.Controller.Tcache_too_small -> ()
      | exception Softcache.Controller.Chunk_too_large _ ->
        Alcotest.fail "pin crowding misreported as Chunk_too_large")
  in
  go addrs

let test_tcache_too_large () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_fifo tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large");
  match Softcache.Tcache.alloc_append tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large (append)"

let test_tcache_append_full () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_append tc ~words:12 with
  | Ok _ -> ()
  | _ -> Alcotest.fail "first append fits");
  match Softcache.Tcache.alloc_append tc ~words:8 with
  | Error `Full -> ()
  | _ -> Alcotest.fail "expected Full"

let test_tcache_persistent_shrinks_space () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_persistent tc ~words:2 with
  | Ok (p, []) ->
    Alcotest.(check int) "from the top" (0x20000 + 64 - 8) p;
    Alcotest.(check int) "persist_base moved" (0x20000 + 56)
      (Softcache.Tcache.persist_base tc)
  | _ -> Alcotest.fail "persistent alloc failed");
  (* a 16-word block no longer fits in the remaining 56 bytes *)
  match Softcache.Tcache.alloc_fifo tc ~words:16 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large after persistent shrink"

let test_tcache_persistent_evicts_overlap () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_fifo tc ~words:16 with
  | Ok (p, []) ->
    Softcache.Tcache.register tc (block ~id:9 ~vaddr:0x1000 ~paddr:p ~words:16)
  | _ -> Alcotest.fail "fill failed");
  match Softcache.Tcache.alloc_persistent tc ~words:1 with
  | Ok (_, [ victim ]) -> Alcotest.(check int) "overlap evicted" 9 victim.id
  | _ -> Alcotest.fail "expected the resident block to be evicted"

let test_tcache_reset_keeps_persistent () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  ignore (Softcache.Tcache.alloc_persistent tc ~words:2);
  (match Softcache.Tcache.alloc_fifo tc ~words:4 with
  | Ok (p, _) ->
    Softcache.Tcache.register tc (block ~id:3 ~vaddr:0x1000 ~paddr:p ~words:4)
  | _ -> Alcotest.fail "alloc failed");
  let former = Softcache.Tcache.reset tc in
  Alcotest.(check int) "one former resident" 1 (List.length former);
  Alcotest.(check int) "persistent area survives flush" (0x20000 + 56)
    (Softcache.Tcache.persist_base tc);
  Alcotest.(check int) "empty" 0 (Softcache.Tcache.resident_blocks tc)

let test_tcache_occupancy () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:1024 in
  ignore (Softcache.Tcache.alloc_persistent tc ~words:1);
  (match Softcache.Tcache.alloc_fifo tc ~words:10 with
  | Ok (p, _) ->
    Softcache.Tcache.register tc (block ~id:1 ~vaddr:0x1000 ~paddr:p ~words:10)
  | _ -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "blocks + stub words" ((10 * 4) + 4)
    (Softcache.Tcache.occupied_bytes tc);
  Alcotest.(check int) "map entries" 1 (Softcache.Tcache.map_entries tc)

(* The owner index and the occupancy counter against brute force.
   Random sequences of every operation that changes residency or the
   sweep's obstacles run on 1 and on 3 shards. Each placement's victims
   must be exactly the blocks of the pre-state it runs over, lowest
   address first, and after every step the owner index and
   [occupied_bytes] must equal a fold over [Tcache.blocks]. *)
module Tc = Softcache.Tcache

let covering blocks lo hi =
  List.filter
    (fun (b : Tc.block) -> b.paddr < hi && b.paddr + (4 * b.words) > lo)
    blocks
  |> List.sort (fun (a : Tc.block) (b : Tc.block) -> compare a.paddr b.paddr)
  |> List.map (fun (b : Tc.block) -> b.id)

let ids = List.map (fun (b : Tc.block) -> b.id)

let brute_occupied tc =
  List.fold_left (fun acc (b : Tc.block) -> acc + (4 * b.words)) 0
    (Tc.blocks tc)
  + List.fold_left
      (fun acc sh ->
        acc + (snd (Tc.shard_bounds tc sh) - Tc.persist_base ~shard:sh tc))
      0
      (List.init (Tc.shards tc) Fun.id)

(* the owner index, word by word, equals the covering resident block *)
let owner_matches tc =
  let blocks = Tc.blocks tc in
  List.for_all
    (fun (lo, hi, id) ->
      let rec words p =
        p >= hi
        || (match covering blocks p (p + 4) with
           | [ b ] -> b = id
           | [] -> id = -1
           | _ -> false)
           && words (p + 4)
      in
      words lo)
    (Tc.owner_runs tc)

let tcache_model ~shards ops =
  let tc = Tc.create_sharded ~shards ~base:0x20000 ~bytes:(shards * 128) in
  let next_id = ref 0 in
  let pick n =
    match Tc.blocks tc with
    | [] -> None
    | l -> Some (List.nth l (n mod List.length l))
  in
  let install p words =
    let id = !next_id in
    incr next_id;
    Tc.register tc (block ~id ~vaddr:(0x1000 + (4 * id)) ~paddr:p ~words)
  in
  let step (op, a, b) =
    let shard = a mod shards and words = 1 + (b mod 12) in
    let pre = Tc.blocks tc in
    let placed = function
      | Ok (p, victims) ->
        let ok = ids victims = covering pre p (p + (4 * words)) in
        install p words;
        ok
      | Error (`Full | `Too_large) -> true
    in
    match op mod 9 with
    | 0 -> placed (Tc.alloc_fifo ~shard tc ~words)
    | 1 ->
      let seed =
        match pick b with Some v -> v.paddr | None -> 0x20000 + (4 * b)
      in
      placed (Tc.alloc_seeded ~shard tc ~seed ~words)
    | 2 -> (
      match Tc.alloc_append ~shard tc ~words with
      | Ok p ->
        let ok = covering pre p (p + (4 * words)) = [] in
        install p words;
        ok
      | Error _ -> true)
    | 3 -> (
      let top = Tc.persist_base ~shard tc in
      match Tc.alloc_persistent ~shard tc ~words:1 with
      | Ok (p, victims) -> p = top - 4 && ids victims = covering pre p top
      | Error `Too_large -> true)
    | 4 -> (match pick b with Some v -> Tc.remove tc v | None -> ()); true
    | 5 -> (match pick b with Some v -> Tc.pin tc v | None -> ()); true
    | 6 -> (match pick b with Some v -> Tc.unpin tc v | None -> ()); true
    | 7 ->
      (match pick b with
      | Some v -> if a land 1 = 0 then Tc.lease tc v else Tc.release tc v
      | None -> ());
      true
    | _ ->
      let former = Tc.reset tc in
      let unpinned =
        List.filter (fun (v : Tc.block) -> not (Tc.is_pinned tc v.id)) pre
      in
      List.sort compare (ids former) = List.sort compare (ids unpinned)
  in
  List.for_all
    (fun op ->
      step op && Tc.occupied_bytes tc = brute_occupied tc && owner_matches tc)
    ops

let test_tcache_model shards =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%d-shard owner/counter model" shards)
    QCheck.(list_of_size Gen.(1 -- 80) (triple small_nat small_nat small_nat))
    (tcache_model ~shards)

(* Mutation: one corrupted owner slot — a resident word marked free, or
   a free word claimed by a resident block — must be reported by the
   auditor's owner section, and by nothing else it checks. *)
let test_owner_mutation_caught () =
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let ctrl =
    Softcache.Controller.create
      (Softcache.Config.make ~tcache_bytes:2048 ())
      img
  in
  ignore (Softcache.Controller.run ~fuel:200_000 ctrl : Machine.Cpu.outcome);
  let reported () =
    List.map
      (fun (v : Check.Audit.violation) -> v.invariant)
      (Check.Audit.run ctrl)
  in
  Alcotest.(check (list string)) "clean before corruption" [] (reported ());
  let tc = ctrl.tc in
  let victim = List.hd (Tc.blocks tc) in
  let last = victim.paddr + (4 * (victim.words - 1)) in
  Tc.corrupt_owner tc last None;
  Alcotest.(check (list string)) "lost owner" [ "owner" ] (reported ());
  Tc.corrupt_owner tc last (Some victim);
  Alcotest.(check (list string)) "restored" [] (reported ());
  match
    List.find_opt
      (fun (lo, _, id) -> id = -1 && lo < Tc.persist_base tc)
      (Tc.owner_runs tc)
  with
  | Some (free_word, _, _) ->
    Tc.corrupt_owner tc free_word (Some victim);
    Alcotest.(check (list string)) "stray owner" [ "owner" ] (reported ())
  | None -> Alcotest.fail "no free word to corrupt"

let () =
  Alcotest.run "core-units"
    [
      ( "chunker",
        [
          Alcotest.test_case "basic block extent" `Quick test_chunk_basic_block;
          Alcotest.test_case "procedure extent" `Quick test_chunk_procedure;
          Alcotest.test_case "bad addresses" `Quick test_chunk_bad_addresses;
          Alcotest.test_case "rejects traps" `Quick test_chunk_rejects_trap;
        ] );
      ( "rewriter-layout",
        [
          Alcotest.test_case "sizes per terminator" `Quick test_layout_sizes;
          Alcotest.test_case "internal branch" `Quick
            test_layout_internal_branch;
        ] );
      ( "rewriter-emission",
        [
          QCheck_alcotest.to_alcotest test_rewriter_invariants;
          Alcotest.test_case "verbatim body" `Quick test_emit_verbatim_body;
          Alcotest.test_case "unbound jmp traps" `Quick
            test_emit_unbound_jmp_is_trap;
          Alcotest.test_case "bound jmp direct" `Quick
            test_emit_bound_jmp_is_direct;
          Alcotest.test_case "call shape (jal+pad+island)" `Quick
            test_emit_call_shape;
          Alcotest.test_case "branch shape" `Quick test_emit_branch_shape;
          Alcotest.test_case "computed jump" `Quick test_emit_computed_jump;
          Alcotest.test_case "return verbatim" `Quick
            test_emit_return_verbatim;
          Alcotest.test_case "resume map" `Quick test_emit_resume_map;
          Alcotest.test_case "internal jmp" `Quick test_emit_internal_jmp;
        ] );
      ( "tcache",
        [
          Alcotest.test_case "register/lookup" `Quick
            test_tcache_register_lookup;
          Alcotest.test_case "fifo wrap evicts" `Quick
            test_tcache_fifo_wrap_evicts;
          Alcotest.test_case "too large" `Quick test_tcache_too_large;
          Alcotest.test_case "pin crowding is Full" `Quick
            test_tcache_pin_crowding_full;
          Alcotest.test_case "pin crowding raises Tcache_too_small" `Quick
            test_controller_pin_crowding;
          Alcotest.test_case "append full" `Quick test_tcache_append_full;
          Alcotest.test_case "persistent shrinks space" `Quick
            test_tcache_persistent_shrinks_space;
          Alcotest.test_case "persistent evicts overlap" `Quick
            test_tcache_persistent_evicts_overlap;
          Alcotest.test_case "reset keeps persistent" `Quick
            test_tcache_reset_keeps_persistent;
          Alcotest.test_case "occupancy accounting" `Quick
            test_tcache_occupancy;
          QCheck_alcotest.to_alcotest (test_tcache_model 1);
          QCheck_alcotest.to_alcotest (test_tcache_model 3);
          Alcotest.test_case "corrupt owner slot is audited" `Quick
            test_owner_mutation_caught;
        ] );
    ]
