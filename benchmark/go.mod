module mgsilt/benchmark

go 1.22

require mgsilt v0.0.0

replace mgsilt => ../
