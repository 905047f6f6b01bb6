(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
   the CC verifies on every chunk the MC ships over the link. Any
   single-bit corruption is guaranteed to change the digest. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc :=
      t.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s)
