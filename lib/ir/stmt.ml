type t = {
  refs : Ref_.t list;
  flops : int;
}

let make ?(flops = 0) refs = { refs; flops }

let assign ?(flops = 0) w rs =
  if not (Ref_.is_write w) then invalid_arg "Stmt.assign: target is not a write";
  { refs = rs @ [ w ]; flops }

let reads t = List.filter (fun r -> not (Ref_.is_write r)) t.refs

let writes t = List.filter Ref_.is_write t.refs

let map_refs f t = { t with refs = List.map f t.refs }
