include Rumor_stats.Sparkline

let render_ints data = render (Array.map float_of_int data)
