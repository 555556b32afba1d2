open Mlc_ir
module Cs = Mlc_cachesim
module Obs = Mlc_obs.Obs

type event = { pass : string; detail : string }

type t = {
  name : string;
  applies : Cs.Machine.t -> Program.t -> bool;
  run :
    Cs.Machine.t ->
    Program.t * Layout.t ->
    Program.t * Layout.t * event list;
}

let always _ _ = true

let make ?(applies = always) name run = { name; applies; run }

let l1_geometry machine =
  match machine.Cs.Machine.geometries with
  | g :: _ -> g
  | [] -> invalid_arg "Pass: machine without cache levels"

(* --- program passes ------------------------------------------------------ *)

let permute =
  make "permute" (fun machine (program, layout) ->
      let line = Cs.Machine.level_line machine 0 in
      let events = ref [] in
      let program =
        Program.map_nests
          (fun nest ->
            let best = Permute.optimize layout ~line nest in
            if Nest.vars best <> Nest.vars nest then
              events :=
                {
                  pass = "permute";
                  detail =
                    Printf.sprintf "permuted (%s) -> (%s)"
                      (String.concat "," (Nest.vars nest))
                      (String.concat "," (Nest.vars best));
                }
                :: !events;
            best)
          program
      in
      (program, layout, List.rev !events))

let fusion =
  make "fusion"
    ~applies:(fun _ p -> List.length p.Program.nests > 1)
    (fun machine (program, layout) ->
      let fused, log = Fusion.optimize_program machine program in
      ( fused,
        layout,
        List.map (fun l -> { pass = "fusion"; detail = "fusion: " ^ l }) log ))

let scalar_replace =
  make "scalar-replace" (fun _machine (program, layout) ->
      let before = Program.ref_count program in
      let replaced = Scalar_replace.apply_program program in
      ( replaced,
        layout,
        [
          {
            pass = "scalar-replace";
            detail =
              Printf.sprintf "scalar replacement removed %d references per run"
                (before - Program.ref_count replaced);
          };
        ] ))

(* --- layout passes ------------------------------------------------------- *)

(* Decision events for a layout pass: the per-array pad deltas it chose. *)
let layout_events ~pass before after =
  List.filter_map
    (fun v ->
      let d_base = Layout.pad_before after v - Layout.pad_before before v in
      let d_intra = Layout.intra_pad after v - Layout.intra_pad before v in
      if d_base = 0 && d_intra = 0 then None
      else
        Some
          {
            pass;
            detail =
              Printf.sprintf "%s: %s %+dB%s" pass v d_base
                (if d_intra <> 0 then
                   Printf.sprintf ", column %+d elems" d_intra
                 else "");
          })
    (Layout.array_names after)

let layout_pass name f =
  make name (fun machine (program, layout) ->
      let after = f machine program layout in
      (program, after, layout_events ~pass:name layout after))

let intra_pad =
  layout_pass "intra-pad" (fun machine program layout ->
      let g = l1_geometry machine in
      Intra_pad.apply ~size:g.Cs.Level.size ~line:g.Cs.Level.line program layout)

let pad_l1 =
  layout_pass "pad" (fun machine program layout ->
      let g = l1_geometry machine in
      Pad.apply ~size:g.Cs.Level.size ~line:g.Cs.Level.line program layout)

let multilvlpad =
  layout_pass "multilvlpad" (fun machine program layout ->
      Multilvlpad.apply machine program layout)

let grouppad_l1 =
  layout_pass "grouppad" (fun machine program layout ->
      let g = l1_geometry machine in
      Grouppad.apply ~size:g.Cs.Level.size ~line:g.Cs.Level.line program layout)

let l2maxpad =
  make "l2maxpad"
    ~applies:(fun machine _ -> Cs.Machine.n_levels machine >= 2)
    (fun machine (program, layout) ->
      let after =
        Maxpad.apply_l2 ~s1:(Cs.Machine.s1 machine)
          ~l2_size:(Cs.Machine.level_size machine 1) layout
      in
      (program, after, layout_events ~pass:"l2maxpad" layout after))

(* --- execution ----------------------------------------------------------- *)

let instrument pass =
  {
    pass with
    run =
      (fun machine pl ->
        Obs.with_span ~cat:"pass" ("pass:" ^ pass.name) (fun () ->
            let program, layout, events = pass.run machine pl in
            List.iter
              (fun e ->
                Obs.instant ~cat:"decision"
                  ~args:[ ("pass", `Str e.pass) ]
                  e.detail)
              events;
            if events <> [] then
              Obs.count ~n:(List.length events)
                ("pass." ^ pass.name ^ ".decisions");
            (program, layout, events)));
  }

let run_one machine pass (program, layout) =
  if pass.applies machine program then pass.run machine (program, layout)
  else (program, layout, [])

let run_all machine passes (program, layout) =
  List.fold_left
    (fun (p, l, acc) pass ->
      let p', l', events = run_one machine (instrument pass) (p, l) in
      (p', l', acc @ events))
    (program, layout, []) passes
