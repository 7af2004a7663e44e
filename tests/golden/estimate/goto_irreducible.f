program main
  integer i, x
  i = 0
  x = 1
  if (x .gt. 0) goto 20
10 goto 20
20 i = i + 1
  if (i .lt. 3) goto 10
  print i
end
