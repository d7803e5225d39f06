include Rumor_sim.Bitset

let to_bool_array t = Array.init (length t) (get t)
