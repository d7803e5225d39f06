include Rumor_sim.Cells

let reset t = fill t 0
