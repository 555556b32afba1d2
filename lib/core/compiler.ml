open Mlc_ir
module Cs = Mlc_cachesim

type result = {
  program : Program.t;
  layout : Layout.t;
  log : string list;
}

let default_passes =
  [ Pass.permute; Pass.fusion ] @ Pipeline.passes Pipeline.Grouppad_l1_l2

let optimize ?(passes = default_passes) machine program =
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let program, layout, events =
    Pass.run_all machine passes (program, Layout.initial program)
  in
  say "passes: %s" (String.concat " -> " (List.map (fun p -> p.Pass.name) passes));
  List.iter (fun e -> log := e.Pass.detail :: !log) events;
  List.iter
    (fun v ->
      let pad = Layout.pad_before layout v in
      let intra = Layout.intra_pad layout v in
      if pad > 0 || intra > 0 then
        say "  %s: pad_before %dB%s" v pad
          (if intra > 0 then Printf.sprintf ", column +%d elems" intra else ""))
    (Layout.array_names layout);
  { program; layout; log = List.rev !log }

let report ?passes machine program =
  let optimized = optimize ?passes machine program in
  let orig_layout = Layout.initial program in
  let r0 = Interp.run machine orig_layout program in
  let r1 = Interp.run machine optimized.layout optimized.program in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program %s on %s\n" program.Program.name
                           machine.Cs.Machine.name);
  List.iter (fun l -> Buffer.add_string buf ("  " ^ l ^ "\n")) optimized.log;
  let rates label r =
    Buffer.add_string buf (Printf.sprintf "  %-10s" label);
    List.iteri
      (fun i rate ->
        Buffer.add_string buf (Printf.sprintf " L%d %5.2f%%" (i + 1) (100.0 *. rate)))
      r.Interp.miss_rates;
    Buffer.add_string buf (Printf.sprintf "  cycles %.3e\n" r.Interp.cycles)
  in
  rates "original" r0;
  rates "optimized" r1;
  Buffer.add_string buf
    (Printf.sprintf "  model-time improvement: %.2f%%\n"
       (Cs.Cost_model.improvement ~orig:r0.Interp.cycles ~opt:r1.Interp.cycles));
  Buffer.contents buf
