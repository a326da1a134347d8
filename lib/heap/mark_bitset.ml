type t = { mutable bits : Bytes.t }

let create () = { bits = Bytes.make 1024 '\000' }

let ensure t id =
  let needed = (id lsr 3) + 1 in
  if needed > Bytes.length t.bits then begin
    let size = ref (Bytes.length t.bits) in
    while !size < needed do
      size := !size * 2
    done;
    let bits = Bytes.make !size '\000' in
    Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
    t.bits <- bits
  end

let mark t id =
  ensure t id;
  let byte = id lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (id land 7))))

let marked t id =
  let byte = id lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.get t.bits byte) land (1 lsl (id land 7)) <> 0

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let iter_marked t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let v = Char.code (Bytes.get t.bits byte) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done
