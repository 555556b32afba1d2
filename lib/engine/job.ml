open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

exception Spec_error of string

let spec_error fmt = Printf.ksprintf (fun s -> raise (Spec_error s)) fmt

(* ----------------------------------------------------------------- *)
(* Specs                                                              *)
(* ----------------------------------------------------------------- *)

type program_spec =
  | Registry of { name : string; n : int option }
  | Paper of { name : string; n : int }
  | Fused of { base : program_spec; at : int; max_shift : int }
  | Matmul of { n : int }
  | Tiled_matmul of { n : int; h : int; w : int }
  | Time_sweep of { n : int; steps : int }
  | Time_tiled of { n : int; steps : int; block : int }

type layout_spec =
  | Strategy of L.Pipeline.strategy
  | Initial
  | Pad_assoc of { size : int; line : int; assoc : int }

type machine_spec = {
  base : string;
  assoc : int option;
  write_allocate : bool option;
  prefetch_levels : int list;
}

let machine base = { base; assoc = None; write_allocate = None; prefetch_levels = [] }

type count_target = Nests of int list | Largest_body

type spec = {
  program : program_spec;
  layout : layout_spec;
  machine : machine_spec;
  predict : bool;
  count : (layout_spec * count_target) option;
  backend : Interp.backend;
}

let simulate ?(machine = machine "ultrasparc") ?(predict = false) ?count
    ?(backend = `Fast) ~layout program =
  { program; layout; machine; predict; count; backend }

let fusion_pair ?machine ~at base =
  let job count program =
    simulate ?machine
      ~count:(Strategy L.Pipeline.Grouppad_l1, count)
      ~layout:(Strategy L.Pipeline.Grouppad_l1_l2) program
  in
  ( job (Nests [ at; at + 1 ]) base,
    job Largest_body (Fused { base; at; max_shift = 4 }) )

(* ----------------------------------------------------------------- *)
(* Canonical serialization (the cache-key input)                      *)
(* ----------------------------------------------------------------- *)

let strategies =
  [
    ("orig", L.Pipeline.Original);
    ("pad", L.Pipeline.Pad_l1);
    ("multilvlpad", L.Pipeline.Pad_multilevel);
    ("grouppad", L.Pipeline.Grouppad_l1);
    ("l2maxpad", L.Pipeline.Grouppad_l1_l2);
  ]

let strategy_tag s = fst (List.find (fun (_, s') -> s' = s) strategies)

let rec program_string = function
  | Registry { name; n } ->
      Printf.sprintf "registry(%s%s)"
        (String.lowercase_ascii name)
        (match n with None -> "" | Some n -> Printf.sprintf ",n=%d" n)
  | Paper { name; n } -> Printf.sprintf "paper(%s,n=%d)" name n
  | Fused { base; at; max_shift } ->
      Printf.sprintf "fused(%s,at=%d,max_shift=%d)" (program_string base) at max_shift
  | Matmul { n } -> Printf.sprintf "matmul(n=%d)" n
  | Tiled_matmul { n; h; w } -> Printf.sprintf "tiled_matmul(n=%d,h=%d,w=%d)" n h w
  | Time_sweep { n; steps } -> Printf.sprintf "time_sweep(n=%d,steps=%d)" n steps
  | Time_tiled { n; steps; block } ->
      Printf.sprintf "time_tiled(n=%d,steps=%d,block=%d)" n steps block

let layout_string = function
  | Strategy s -> "strategy:" ^ strategy_tag s
  | Initial -> "initial"
  | Pad_assoc { size; line; assoc } ->
      Printf.sprintf "pad_assoc(size=%d,line=%d,assoc=%d)" size line assoc

let machine_string m =
  Printf.sprintf "%s,assoc=%s,wa=%s,pf=[%s]" m.base
    (match m.assoc with None -> "-" | Some k -> string_of_int k)
    (match m.write_allocate with None -> "-" | Some b -> string_of_bool b)
    (String.concat ";" (List.map string_of_int m.prefetch_levels))

let count_target_string = function
  | Nests is -> Printf.sprintf "nests[%s]" (String.concat ";" (List.map string_of_int is))
  | Largest_body -> "largest_body"

let canonical spec =
  Printf.sprintf "program=%s|layout=%s|machine=%s|predict=%b|count=%s|backend=%s"
    (program_string spec.program)
    (layout_string spec.layout)
    (machine_string spec.machine)
    spec.predict
    (match spec.count with
    | None -> "-"
    | Some (l, t) ->
        Printf.sprintf "%s@%s" (count_target_string t) (layout_string l))
    (Interp.backend_name spec.backend)

let describe spec = program_string spec.program ^ "/" ^ layout_string spec.layout

(* ----------------------------------------------------------------- *)
(* Results                                                            *)
(* ----------------------------------------------------------------- *)

type result = {
  key : string;
  interp : Interp.result;
  level_stats : Cs.Stats.t list;
  cost_breakdown : (string * float) list;
  predicted : float list option;
  counts : An.Fusion_model.counts option;
}

(* ----------------------------------------------------------------- *)
(* Execution                                                          *)
(* ----------------------------------------------------------------- *)

let machines =
  [ ("ultrasparc", Cs.Machine.ultrasparc); ("alpha", Cs.Machine.alpha21164) ]

let build_machine m =
  let base =
    match List.assoc_opt m.base machines with
    | Some machine -> machine
    | None ->
        spec_error "unknown machine %S (%s)" m.base
          (String.concat "|" (List.map fst machines))
  in
  match m.assoc with
  | None | Some 1 -> base
  | Some k -> Cs.Machine.with_associativity k base

let rec build_program = function
  | Registry { name; n } -> (
      match K.Registry.find_opt name with
      | None -> spec_error "unknown benchmark %S (see `mlc list`)" name
      | Some e -> (
          match (n, e.K.Registry.build_sized) with
          | None, _ -> e.K.Registry.build ()
          | Some n, Some f -> f n
          | Some _, None -> spec_error "%s takes no size parameter" e.K.Registry.name))
  | Paper { name; n } -> (
      match name with
      | "figure2" -> K.Paper_examples.figure2 n
      | "figure6_fused" -> K.Paper_examples.figure6_fused n
      | other -> spec_error "unknown paper example %S" other)
  | Fused { base; at; max_shift } ->
      L.Fusion.fuse_program ~max_shift (build_program base) at
  | Matmul { n } -> L.Tiling.matmul n
  | Tiled_matmul { n; h; w } -> L.Tiling.tiled_matmul ~n ~h ~w
  | Time_sweep { n; steps } -> K.Time_kernels.sweep_2d ~n ~steps
  | Time_tiled { n; steps; block } -> K.Time_kernels.time_tiled_2d ~n ~steps ~block

let build_layout machine_t lspec program =
  match lspec with
  | Strategy s -> L.Pipeline.layout_for machine_t s program
  | Initial -> Layout.initial program
  | Pad_assoc { size; line; assoc } ->
      L.Pad.apply ~assoc ~size ~line program (Layout.initial program)

let count_nests target (program : Program.t) =
  match target with
  | Nests is ->
      List.map
        (fun i ->
          match List.nth_opt program.Program.nests i with
          | Some n -> n
          | None -> spec_error "count target: program has no nest %d" i)
        is
  | Largest_body -> (
      match program.Program.nests with
      | [] -> spec_error "count target: program has no nests"
      | first :: _ ->
          [
            List.fold_left
              (fun best nest ->
                if List.length (Nest.refs nest) > List.length (Nest.refs best)
                then nest
                else best)
              first program.Program.nests;
          ])

let execute spec =
  let machine_t = build_machine spec.machine in
  let program = build_program spec.program in
  let layout = build_layout machine_t spec.layout program in
  let interp =
    Interp.run ~backend:spec.backend
      ?write_allocate:spec.machine.write_allocate
      ~prefetch_levels:spec.machine.prefetch_levels machine_t layout program
  in
  let level_stats = interp.Interp.levels in
  let cost_breakdown =
    Cs.Cost_model.breakdown_of_stats machine_t.Cs.Machine.cost level_stats
  in
  let predicted =
    if spec.predict then
      Some (An.Miss_predict.program_misses layout machine_t program)
    else None
  in
  let counts =
    Option.map
      (fun (lspec, target) ->
        let lay = build_layout machine_t lspec program in
        An.Fusion_model.count lay
          ~l1_size:(Cs.Machine.s1 machine_t)
          (count_nests target program))
      spec.count
  in
  { key = canonical spec; interp; level_stats; cost_breakdown; predicted; counts }
