# Fails when any discovered ctest name embeds a hexadecimal address.
#
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build tree> -P check_test_names.cmake
execute_process(
    COMMAND ${CTEST} -N
    WORKING_DIRECTORY ${BUILD_DIR}
    OUTPUT_VARIABLE listing
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR}")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*" names "${listing}")
list(LENGTH names total)
if(total EQUAL 0)
    message(FATAL_ERROR "no tests discovered in ${BUILD_DIR}")
endif()
set(bad 0)
foreach(name IN LISTS names)
    if(name MATCHES "0x[0-9a-fA-F]")
        message(STATUS "address in test name: ${name}")
        math(EXPR bad "${bad} + 1")
    endif()
endforeach()
if(bad GREATER 0)
    message(FATAL_ERROR "${bad} of ${total} test names embed an address")
endif()
message(STATUS "${total} test names, none embeds an address")
