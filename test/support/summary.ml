include Rumor_stats.Summary

let of_ints l = of_list (List.map float_of_int l)
