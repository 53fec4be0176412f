module mathcloud/bench

go 1.22

require mathcloud v0.0.0

replace mathcloud => ../
