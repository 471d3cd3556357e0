# Header hygiene check, run under ctest. Invoked as:
#
#   cmake -DCXX=<C++ compiler> -DSRC_DIR=<repo>/src -DWORK_DIR=<scratch dir>
#         -P header_test.cmake
#
# Compiles every src/**/*.hpp alone (a translation unit holding only its
# #include, -std=c++20 -fsyntax-only, include root src/): a header must
# compile from what it includes itself, never from what an earlier
# include happened to bring in. Fails naming every header that does not.

if(NOT DEFINED CXX OR NOT DEFINED SRC_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCXX=..., -DSRC_DIR=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

file(GLOB_RECURSE headers RELATIVE ${SRC_DIR} ${SRC_DIR}/*.hpp)
list(SORT headers)
list(LENGTH headers count)
if(count EQUAL 0)
  message(FATAL_ERROR "no headers under ${SRC_DIR}")
endif()
list(GET headers -1 last)

# execute_process runs its COMMANDs concurrently, as one pipeline (the
# compiler writes nothing to stdout), so headers compile four at a time.
set(failed "")
set(batch "")
set(commands "")
foreach(header IN LISTS headers)
  string(MAKE_C_IDENTIFIER "${header}" unit)
  set(tu ${WORK_DIR}/${unit}.cpp)
  file(WRITE ${tu} "#include \"${header}\"\n")
  list(APPEND batch ${header})
  list(APPEND commands
       COMMAND ${CXX} -std=c++20 -fsyntax-only -I${SRC_DIR} ${tu})
  list(LENGTH batch size)
  if(size EQUAL 4 OR header STREQUAL "${last}")
    execute_process(${commands} RESULTS_VARIABLE codes ERROR_VARIABLE err)
    math(EXPR top "${size} - 1")
    foreach(i RANGE ${top})
      list(GET codes ${i} code)
      if(NOT code EQUAL 0)
        list(GET batch ${i} bad)
        list(APPEND failed ${bad})
      endif()
    endforeach()
    if(NOT err STREQUAL "")
      message("${err}")
    endif()
    set(batch "")
    set(commands "")
  endif()
endforeach()

if(failed)
  list(JOIN failed ", " names)
  message(FATAL_ERROR "headers not self-contained: ${names}")
endif()
message(STATUS "${count} headers compile alone")
