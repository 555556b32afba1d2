open Mlc_ir
module Cs = Mlc_cachesim

type strategy =
  | Original
  | Pad_l1
  | Pad_multilevel
  | Grouppad_l1
  | Grouppad_l1_l2

let strategy_name = function
  | Original -> "Orig"
  | Pad_l1 -> "L1 Opt (PAD)"
  | Pad_multilevel -> "L1&L2 Opt (MULTILVLPAD)"
  | Grouppad_l1 -> "L1 Opt (GROUPPAD)"
  | Grouppad_l1_l2 -> "L1&L2 Opt (GROUPPAD+L2MAXPAD)"

let passes = function
  | Original -> []
  | Pad_l1 -> [ Pass.intra_pad; Pass.pad_l1 ]
  | Pad_multilevel -> [ Pass.intra_pad; Pass.multilvlpad ]
  | Grouppad_l1 -> [ Pass.intra_pad; Pass.grouppad_l1 ]
  | Grouppad_l1_l2 -> [ Pass.intra_pad; Pass.grouppad_l1; Pass.l2maxpad ]

let layout_for machine strategy program =
  let _, layout, _ =
    Pass.run_all machine (passes strategy) (program, Layout.initial program)
  in
  layout
