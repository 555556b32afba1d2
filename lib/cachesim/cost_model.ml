type t = {
  hit_cycles : float array;
  memory_cycles : float;
  clock_hz : float;
}

let breakdown_of_stats t stats =
  let n = List.length stats in
  if n = 0 then invalid_arg "Cost_model.breakdown_of_stats: no levels";
  if Array.length t.hit_cycles < n then
    invalid_arg "Cost_model.breakdown_of_stats: model has fewer levels than hierarchy";
  List.mapi
    (fun i s ->
      (Printf.sprintf "L%d" (i + 1), float_of_int s.Stats.accesses *. t.hit_cycles.(i)))
    stats
  @ [ ("memory", float_of_int (List.nth stats (n - 1)).Stats.misses *. t.memory_cycles) ]

let cycles breakdown = List.fold_left (fun total (_, c) -> total +. c) 0.0 breakdown

let mflops t ~flops cycles =
  let s = cycles /. t.clock_hz in
  if s <= 0.0 then 0.0 else float_of_int flops /. s /. 1.0e6

let improvement ~orig ~opt =
  if orig = 0.0 then 0.0 else 100.0 *. (orig -. opt) /. orig
